"""Empirical timeline analysis: cluster statistics, reaction probabilities,
randomization tests, inter-event times and power-law exponent estimation.

A timeline is reconstructed for a user by sorting the events of every
followee newest first. Maximal same-author runs form clusters; a tweet is
flagged as reacted when one of the timeline owner's retweets or replies is
attributed to it (a reaction targeting author `a` attaches to a's most recent
tweet at or before the reaction time). Reaction-probability tables bucket
cluster sizes into 1..10 and ">10".

Timelines and clusters are kept as columns: a timeline is ordered by sorting
its rows' positions in the trace's one newest-first order, clusters start
where the author code changes, and one `bincount` counts a timeline's
clusters per (size bucket, position). A `ClusterTally` adds those counts up
one timeline at a time into one integer table, so a caller pooling every
user's timeline keeps no user's clusters. `TimelinePost` and `ClusterRecord`
objects are only built when a caller reads an item.

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

from .estimate import EVENT_KINDS, ActivityTrace, FollowGraph, _codes
from .model import _Columns, _frozen, _left_sum

__all__ = [
    "MAX_SIZE_BUCKET",
    "OVERFLOW_BUCKET",
    "TimelinePost",
    "ClusterMember",
    "ClusterRecord",
    "Timeline",
    "Clusters",
    "ClusterTally",
    "TestResult",
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


def bucket_name(bucket: int) -> str:
    return f">{MAX_SIZE_BUCKET}" if bucket == OVERFLOW_BUCKET else str(bucket)


class Timeline(_Columns):
    """One user's timeline, newest first, as columns: each post's timestamp,
    author code (an index into `authors`, which is sorted, so code order is
    name order), index in its author's events, kind (an index into
    `EVENT_KINDS`), and reacted flag. Items are `TimelinePost` views."""

    def __init__(self, authors, ts, code, index, kind, reacted):
        self.authors = authors
        self.ts, self.code, self.index, self.kind, self.reacted = ts, code, index, kind, reacted
        _frozen(ts, code, index, kind, reacted)

    def __len__(self) -> int:
        return len(self.ts)

    def _item(self, k: int) -> TimelinePost:
        return TimelinePost(
            int(self.ts[k]),
            self.authors[self.code[k]],
            EVENT_KINDS[self.kind[k]],
            bool(self.reacted[k]),
        )


class Clusters(_Columns):
    """The maximal same-author runs of one timeline as columns: per cluster its
    author code (an index into `authors`) and size, per post its reacted flag
    in timeline order. Items are `ClusterRecord` views."""

    def __init__(self, authors, code, sizes, reacted, starts=None):
        self.authors = authors
        self.code, self.sizes, self.reacted = code, sizes, reacted
        self.starts = np.cumsum(sizes) - sizes if starts is None else starts
        _frozen(code, sizes, reacted, self.starts)

    def __len__(self) -> int:
        return len(self.sizes)

    def _item(self, k: int) -> ClusterRecord:
        start, size = self.starts[k], int(self.sizes[k])
        flags = self.reacted[start : start + size].tolist()
        members = tuple(ClusterMember(p + 1, f) for p, f in enumerate(flags))
        return ClusterRecord(self.authors[self.code[k]], size, members)


def reconstruct_timeline(user: str, graph: FollowGraph, trace: ActivityTrace) -> Timeline:
    """All followee events newest first, with the owner's reactions attached.

    Equal timestamps order by author ascending, then ingestion order.
    """
    if user not in graph:
        raise ValueError(f"unknown user {user!r}")
    authors = graph.followees_of(user)  # sorted by name, as the trace's codes are
    order, position = trace._newest
    # Sorting the rows' distinct positions in the trace's newest-first order orders the timeline.
    at = np.sort(position[trace.rows(authors)[0]])
    rows = order[at]
    reacted = np.zeros(len(rows), bool)
    reacted[np.searchsorted(at, position[trace.attachments(user, authors)[1]])] = True
    owner = trace.user_code[rows]
    local = np.empty(len(trace.names) + 1, np.int64)  # code -1 (no events) writes the last
    local[_codes(trace, authors)] = np.arange(len(authors))
    index = rows - trace._offsets[owner]
    return Timeline(authors, trace.ts[rows], local[owner], index, trace.kind_code[rows], reacted)


def extract_clusters(timeline) -> Clusters:
    """Group a newest-first timeline into maximal same-author runs. A plain
    iterable of `TimelinePost` is read into timeline columns first."""
    if isinstance(timeline, Timeline):
        authors, code, reacted = timeline.authors, timeline.code, timeline.reacted
    else:
        posts = list(timeline)
        codes: dict[str, int] = {}
        code = np.array([codes.setdefault(p.author, len(codes)) for p in posts], np.int64)
        reacted = np.array([p.reacted for p in posts], bool)
        authors = tuple(codes)
    new = np.ones(len(code), bool)  # a cluster starts at the first post and at each new author
    new[1:] = code[1:] != code[:-1]
    starts = np.flatnonzero(new)
    sizes = np.append(starts[1:], len(code)) - starts
    return Clusters(authors, code[starts], sizes, reacted, starts)


def _columns(records):
    """Cluster sizes, first posts and per-post reacted flags, cluster after cluster,
    of one `Clusters` (its own columns) or a list of them or of `ClusterRecord`s."""
    if isinstance(records, Clusters):
        return records.sizes, records.starts, records.reacted
    items = list(records)
    columnar = [c for c in items if isinstance(c, Clusters)]
    plain = [r for r in items if not isinstance(r, Clusters)]
    sizes = [c.sizes for c in columnar] + [np.array([r.size for r in plain], np.int64)]
    flags = [m.reacted for r in plain for m in r.members]
    reacted = [c.reacted for c in columnar] + [np.array(flags, bool)]
    sizes = np.concatenate(sizes)
    return sizes, np.cumsum(sizes) - sizes, np.concatenate(reacted)


# First tally key of each size bucket. Bucket b holds positions 1..b, so the
# buckets pack without gaps, and the overflow bucket, whose positions have no
# bound, comes last.
_BUCKET_KEYS = np.array([b * (b - 1) // 2 for b in range(1, OVERFLOW_BUCKET + 1)])


def _tally(records) -> np.ndarray:
    """Row `key` of the result holds (unreacted, reacted) posts at that tally
    key, over `Clusters`, a list of them, or a list of `ClusterRecord`s."""
    sizes, starts, reacted = _columns(records)
    if len(sizes) and sizes.min() < 1:
        raise ValueError(f"cluster sizes start at 1, got {sizes.min()}")
    # Post p of a cluster that starts at post s is at its bucket's key + p - s.
    key = np.repeat(_BUCKET_KEYS[np.minimum(sizes, OVERFLOW_BUCKET) - 1] - starts, sizes)
    key += np.arange(len(reacted))
    # Bin 2·key counts unreacted posts and bin 2·key + 1 reacted ones.
    bins = np.bincount(2 * key + reacted, minlength=2 * (key.max(initial=-1) + 1))
    return bins.reshape(-1, 2)


class ClusterTally:
    """(reacted, total) posts per (size bucket, cluster position), added up
    over every `Clusters` (or list of `ClusterRecord`s) passed to `add`. It
    holds one integer table, not the clusters, and is read wherever cluster
    records are: `reaction_counts(tally)` equals `reaction_counts` of every
    added cluster together."""

    def __init__(self) -> None:
        self.table = np.zeros((0, 2), np.int64)

    def add(self, records) -> None:
        table = _tally(records)
        if len(table) > len(self.table):
            self.table = np.pad(self.table, ((0, len(table) - len(self.table)), (0, 0)))
        self.table[: len(table)] += table


def _keyed(records) -> dict[tuple[int, int], tuple[int, int]]:
    """Per (size bucket, cluster position): (reacted tweets, total tweets)."""
    table = records.table if isinstance(records, ClusterTally) else _tally(records)
    totals = table.sum(axis=1)
    keys = np.flatnonzero(totals)
    bucket = np.searchsorted(_BUCKET_KEYS, keys, "right")
    position = keys - _BUCKET_KEYS[bucket - 1] + 1
    return {
        (b, k): (r, t)
        for b, k, r, t in zip(
            bucket.tolist(), position.tolist(), table[keys, 1].tolist(), totals[keys].tolist()
        )
    }


def reaction_counts(records) -> dict[int, tuple[int, int]]:
    """Per size bucket: (reacted tweets, total tweets), of cluster records or
    a `ClusterTally`."""
    counts: dict[int, tuple[int, int]] = {}
    for (bucket, _), (r, t) in _keyed(records).items():
        r0, t0 = counts.get(bucket, (0, 0))
        counts[bucket] = (r0 + r, t0 + t)
    return counts


def _as_counts(data) -> dict[int, tuple[int, int]]:
    return data if isinstance(data, dict) else reaction_counts(data)


def reaction_prob_by_size(data) -> dict[int, float]:
    """Empirical reaction probability per size bucket; accepts cluster records
    or a {bucket: (reactions, total)} counts table. Empty buckets are absent."""
    return {b: r / t for b, (r, t) in sorted(_as_counts(data).items()) if t > 0}


def reaction_prob_by_size_position(records) -> dict[tuple[int, int], float]:
    """Empirical reaction probability per (size bucket, cluster position), of
    cluster records or a `ClusterTally`."""
    return {key: r / t for key, (r, t) in sorted(_keyed(records).items())}


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
    """Gaps between a user's consecutive events, in hours; zero and negative
    gaps dropped. `events` may also be the user's timestamps as an int64 array, or
    an `ActivityTrace`: every user's gaps, user after user, from one pass over its rows.

    Each gap is exact mod 2**64, so exact where it is positive, and is rounded
    to a float once before the division, as Python's int / float does."""
    if isinstance(events, ActivityTrace):
        ts, same = events.ts, events.user_code[1:] == events.user_code[:-1]
    else:
        ts, same = events, True
        if not isinstance(events, np.ndarray):
            ts = np.array([ev.ts for ev in events], np.int64)
        if len(ts) < 2:
            raise ValueError("at least two events are required for inter-event times")
    prev, cur = ts[:-1], ts[1:]
    gaps = (cur.view(np.uint64) - prev.view(np.uint64))[(cur > prev) & same]
    return (gaps.astype(float) / 3600.0).tolist()


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
    log_sum = _left_sum(math.log(t / tau_min) for t in tail)
    if log_sum == 0.0:
        raise ValueError("all samples equal tau_min; the exponent is undefined")
    return 1.0 + n / log_sum
