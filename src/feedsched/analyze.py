"""Empirical timeline analysis: cluster statistics, reaction probabilities,
randomization tests, inter-event times and power-law exponent estimation.

A timeline is reconstructed for a user by sorting all her followees' events
newest first. Maximal same-author runs form clusters; a tweet is flagged as
reacted when one of the timeline owner's retweets or replies is attributed to
it (a reaction targeting author `a` attaches to a's most recent tweet at or
before the reaction time). Reaction-probability tables bucket cluster sizes
into 1..10 and ">10".

The randomization test shuffles reaction labels across the tweets of two size
buckets. The permuted count of reactions landing in the first bucket under a
uniform label shuffle is exactly hypergeometric, so the null statistics are
drawn from that distribution directly instead of materializing and permuting
millions of labels; the p-value uses the add-one estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import ActivityTrace, FollowGraph

__all__ = [
    "MAX_SIZE_BUCKET",
    "OVERFLOW_BUCKET",
    "TimelinePost",
    "ClusterMember",
    "ClusterRecord",
    "TestResult",
    "size_bucket",
    "bucket_name",
    "reconstruct_timeline",
    "extract_clusters",
    "reaction_counts",
    "reaction_prob_by_size",
    "reaction_prob_by_size_position",
    "difference_statistic",
    "permutation_test",
    "interevent_times",
    "powerlaw_alpha",
]

MAX_SIZE_BUCKET = 10
OVERFLOW_BUCKET = MAX_SIZE_BUCKET + 1  # collects every size above 10


@dataclass(frozen=True)
class TimelinePost:
    ts: int
    author: str
    kind: str
    reacted: bool


@dataclass(frozen=True)
class ClusterMember:
    position: int  # 1 = newest post of the cluster
    reacted: bool


@dataclass(frozen=True)
class ClusterRecord:
    """A maximal run of consecutive same-author posts on one timeline."""

    author: str
    size: int
    members: tuple[ClusterMember, ...]

    def __post_init__(self) -> None:
        if self.size != len(self.members):
            raise ValueError("cluster size must match its member count")
        if [m.position for m in self.members] != list(range(1, self.size + 1)):
            raise ValueError("cluster positions must be exactly 1..size")


@dataclass(frozen=True)
class TestResult:
    """Observed statistic and add-one permutation p-value."""

    t_obs: float
    p_value: float
    permutations: int
    seed: int


def size_bucket(size: int) -> int:
    if size < 1:
        raise ValueError(f"cluster sizes start at 1, got {size}")
    return min(size, OVERFLOW_BUCKET)


def bucket_name(bucket: int) -> str:
    return f">{MAX_SIZE_BUCKET}" if bucket == OVERFLOW_BUCKET else str(bucket)


def reconstruct_timeline(
    user: str, graph: FollowGraph, trace: ActivityTrace
) -> tuple[TimelinePost, ...]:
    """All followee events newest first, with the owner's reactions attached.

    Equal timestamps order by author ascending, then ingestion order.
    """
    if user not in graph:
        raise ValueError(f"unknown user {user!r}")
    followees = graph.followees_of(user)
    reacted = {(a, idx) for _, a, idx in trace.attached_reactions(user, followees)}
    entries = [  # (ts, author, ingestion index, kind)
        (ev.ts, a, idx, ev.kind)
        for a in followees
        for idx, ev in enumerate(trace.events_by_user(a))
    ]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return tuple(
        TimelinePost(ts, author, kind, (author, idx) in reacted)
        for ts, author, idx, kind in entries
    )


def extract_clusters(timeline) -> tuple[ClusterRecord, ...]:
    """Group the newest-first timeline into maximal same-author runs."""
    records = []
    run: list[TimelinePost] = []
    for post in timeline:
        if run and post.author != run[-1].author:
            records.append(_record(run))
            run = []
        run.append(post)
    if run:
        records.append(_record(run))
    return tuple(records)


def _record(run: list[TimelinePost]) -> ClusterRecord:
    members = tuple(
        ClusterMember(position=k + 1, reacted=post.reacted) for k, post in enumerate(run)
    )
    return ClusterRecord(author=run[0].author, size=len(run), members=members)


def _tally(records) -> dict[tuple[int, int], list[int]]:
    """Per (size bucket, cluster position): [reacted tweets, total tweets]."""
    counts: dict[tuple[int, int], list[int]] = {}
    for record in records:
        bucket = size_bucket(record.size)
        for member in record.members:
            acc = counts.setdefault((bucket, member.position), [0, 0])
            acc[0] += member.reacted
            acc[1] += 1
    return counts


def reaction_counts(records) -> dict[int, tuple[int, int]]:
    """Per size bucket: (reacted tweets, total tweets)."""
    counts: dict[int, tuple[int, int]] = {}
    for (bucket, _), (r, t) in _tally(records).items():
        r0, t0 = counts.get(bucket, (0, 0))
        counts[bucket] = (r0 + r, t0 + t)
    return counts


def _as_counts(data) -> dict[int, tuple[int, int]]:
    if isinstance(data, dict):
        return data
    return reaction_counts(data)


def reaction_prob_by_size(data) -> dict[int, float]:
    """Empirical reaction probability per size bucket; accepts cluster records
    or a {bucket: (reactions, total)} counts table. Empty buckets are absent."""
    return {b: r / t for b, (r, t) in sorted(_as_counts(data).items()) if t > 0}


def reaction_prob_by_size_position(records) -> dict[tuple[int, int], float]:
    """Empirical reaction probability per (size bucket, cluster position)."""
    return {key: r / t for key, (r, t) in sorted(_tally(records).items())}


def _bucket_pair(counts, i: int, j: int):
    for b in (i, j):
        if b not in counts or counts[b][1] == 0:
            raise ValueError(f"size bucket {bucket_name(b)} is empty")
    return counts[i], counts[j]


def difference_statistic(data, i: int, j: int) -> float:
    """Difference of empirical reaction probabilities between size buckets."""
    (ri, ti), (rj, tj) = _bucket_pair(_as_counts(data), i, j)
    return ri / ti - rj / tj


def permutation_test(
    data, i: int, j: int, permutations: int = 1000, seed: int = 0
) -> TestResult:
    """One-sided randomization test of the bucket-probability difference.

    Reaction labels are shuffled across all tweets of buckets i and j with
    counts preserved; each shuffle's reacted count in bucket i is drawn from
    the equivalent hypergeometric distribution. p-value is the add-one
    estimate of P(T_perm >= T_obs); deterministic per seed.
    """
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    (ri, ti), (rj, tj) = _bucket_pair(_as_counts(data), i, j)
    t_obs = ri / ti - rj / tj
    good = ri + rj
    total = ti + tj
    rng = np.random.default_rng(seed)
    draws = rng.hypergeometric(good, total - good, ti, size=permutations)
    t_perm = draws / ti - (good - draws) / tj
    p_value = (1 + int(np.count_nonzero(t_perm >= t_obs))) / (1 + permutations)
    return TestResult(t_obs=t_obs, p_value=p_value, permutations=permutations, seed=seed)


def interevent_times(events) -> list[float]:
    """Gaps between a user's consecutive events, in hours; zero gaps dropped."""
    events = list(events)
    if len(events) < 2:
        raise ValueError("at least two events are required for inter-event times")
    taus = []
    for prev, cur in zip(events, events[1:]):
        gap = (cur.ts - prev.ts) / 3600.0
        if gap > 0:
            taus.append(gap)
    return taus


def powerlaw_alpha(taus, tau_min: float, min_samples: int = 10) -> float:
    """Continuous maximum-likelihood power-law exponent over samples >= tau_min:
    alpha = 1 + n / sum(ln(tau / tau_min)); tau_min must be finite and positive."""
    if not (math.isfinite(tau_min) and tau_min > 0):
        raise ValueError(f"tau_min must be finite and > 0, got {tau_min}")
    tail = [t for t in taus if t >= tau_min]
    n = len(tail)
    if n < min_samples:
        raise ValueError(
            f"need at least {min_samples} samples >= tau_min={tau_min}, got {n}"
        )
    log_sum = sum(math.log(t / tau_min) for t in tail)
    if log_sum == 0.0:
        raise ValueError("all samples equal tau_min; the exponent is undefined")
    return 1.0 + n / log_sum
