"""Behavioural parameter estimation from activity traces and a follow graph.

Turns raw timestamped events into a scheduling problem instance: login slots
from session start times, quit tendency from observed consumption depth, the
monotony tolerance from tie strength with the producer, and per-slot
competitor loads. None of these quantities is directly observable, so the
estimators below are documented surrogates:

* consumption depth uses the deepest reacted-to post per login session as a
  lower bound on scroll depth, with a population-median fallback for
  followers who never react;
* tie strength (reactions to the producer per producer post) is min-max
  normalized across the follower population to obtain delta in [0, 1] - raw
  reaction probabilities are on the order of 1e-3 and would otherwise
  collapse every delta to ~0.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .model import FollowerProfile, ProblemInstance, _frozen

__all__ = [
    "EVENT_KINDS",
    "EstimationError",
    "Event",
    "ActivityTrace",
    "FollowGraph",
    "slot_of",
    "split_sessions",
    "estimate_login_slot",
    "estimate_rho",
    "consumption_depth_mu",
    "tie_strength",
    "estimate_deltas",
    "estimate_delta",
    "aggregate_competitors",
    "activity_histogram",
    "build_instance",
]

EVENT_KINDS = ("post", "retweet", "reply")

SECONDS_PER_DAY = 86400


class EstimationError(RuntimeError):
    """Raised when a behavioural parameter cannot be estimated from the data."""


@dataclass(frozen=True)
class Event:
    """One trace event. Reactions (retweet/reply) carry the targeted author."""

    user: str
    ts: int
    kind: str
    target_author: str | None = None

    def __post_init__(self) -> None:
        for key in ("user", "kind", "target_author"):
            value = getattr(self, key)
            if not isinstance(value, str) and (value is not None or key != "target_author"):
                raise ValueError(f"{key} must be a string, got {value!r}")
        if type(self.ts) is not int or not -(2**63) <= self.ts < 2**63:
            raise ValueError(f"ts must be an integer in the int64 range, got {self.ts!r}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}")
        if self.kind == "post" and self.target_author is not None:
            raise ValueError("post events must not carry a target_author")
        if self.kind != "post" and not self.target_author:
            raise ValueError(f"{self.kind} events must carry a target_author")

    @property
    def is_reaction(self) -> bool:
        return self.kind != "post"


class ActivityTrace:
    """Timestamped events as read-only columns, one row per event, sorted by
    (user, ts, ingestion order).

    `names` holds every user and target author, sorted, and `codes` maps each
    name to its index there, so code order is name order. Per row, `user_code`
    and `target_code` are name codes (the target is -1 for a post), `ts` is the
    int64 timestamp and `kind_code` an index into `EVENT_KINDS`. `Event`
    objects are only built when `events` or `events_by_user` is read.
    """

    def __init__(self, events, tz_offset_minutes: int = 0):
        events = list(events)
        self._fill(
            [ev.user for ev in events],
            [ev.ts for ev in events],
            [ev.kind for ev in events],
            [ev.target_author for ev in events],
            tz_offset_minutes,
        )

    @classmethod
    def from_columns(cls, users, ts, kinds, targets, tz_offset_minutes: int = 0):
        """A trace from per-event lists in ingestion order. Each event must
        already obey the rules of `Event`; nothing is checked here."""
        trace = cls.__new__(cls)
        trace._fill(users, ts, kinds, targets, tz_offset_minutes)
        return trace

    def _fill(self, users, ts, kinds, targets, tz_offset_minutes: int) -> None:
        self.tz_offset_minutes = int(tz_offset_minutes)
        # Codes come from Python strings: a fixed-width numpy string array drops
        # trailing NULs and would merge "a" with "a\x00".
        self.names = tuple(sorted(set(users).union(targets).difference([None])))
        self.codes = {name: k for k, name in enumerate(self.names)}
        n = len(users)
        user_code = np.fromiter(map(self.codes.__getitem__, users), np.int64, n)
        target_code = np.fromiter(map({**self.codes, None: -1}.__getitem__, targets), np.int64, n)
        kind_code = np.fromiter(map(EVENT_KINDS.index, kinds), np.int8, n)
        stamps = np.array(ts, np.int64)
        order = np.lexsort((stamps, user_code))  # stable: ties keep ingestion order
        self.user_code, self.ts = user_code[order], stamps[order]
        self.kind_code, self.target_code = kind_code[order], target_code[order]
        self._ingested = order
        counts = np.bincount(user_code, minlength=len(self.names))
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._users = tuple(itertools.compress(self.names, counts.tolist()))
        _frozen(self.user_code, self.ts, self.kind_code, self.target_code)

    def __len__(self) -> int:
        return len(self.ts)

    def users(self) -> tuple[str, ...]:
        """The users with at least one event, sorted."""
        return self._users

    def user_slice(self, user: str) -> slice:
        """The rows of one user's events; empty for a user without any."""
        k = self.codes.get(user)
        return slice(0, 0) if k is None else slice(*self._offsets[k : k + 2].tolist())

    def rows(self, users) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the given users' events, user after user, and each
        user's event count. Users in name order give ascending rows."""
        spans = [self.user_slice(u) for u in users]
        starts = np.array([s.start for s in spans], np.int64)
        counts = np.array([s.stop - s.start for s in spans], np.int64)
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return np.arange(len(shift)) + shift, counts

    @functools.cached_property
    def _row_events(self) -> tuple[Event, ...]:
        names = self.names
        return tuple(
            Event(names[u], t, EVENT_KINDS[k], names[g] if g >= 0 else None)
            for u, t, k, g in zip(
                self.user_code.tolist(),
                self.ts.tolist(),
                self.kind_code.tolist(),
                self.target_code.tolist(),
            )
        )

    @functools.cached_property
    def events(self) -> tuple[Event, ...]:
        """Every event by timestamp, equal timestamps in ingestion order."""
        order = np.lexsort((self._ingested, self.ts))
        return tuple(map(self._row_events.__getitem__, order.tolist()))

    def events_by_user(self, user: str) -> tuple[Event, ...]:
        return self._row_events[self.user_slice(user)]

    def timestamps(self, *users: str) -> np.ndarray:
        """The given users' timestamps as one int64 array, user after user, each
        in `events_by_user` order (equal timestamps in ingestion order). Callers
        must not write to it."""
        if len(users) == 1:
            return self.ts[self.user_slice(users[0])]
        return self.ts[self.rows(users)[0]]

    @functools.cached_property
    def _attached_row(self) -> np.ndarray:
        """Per row, the row of the event a reaction attaches to, its target's
        latest event at or before it; -1 for posts and unattached reactions.
        One `searchsorted` on the (user code, ts rank) key of every row; ranks
        stand in for timestamps, so the key cannot overflow at the int64 ends."""
        _, rank = np.unique(self.ts, return_inverse=True)
        stride = len(self.ts) + 1
        key = self.user_code * stride + rank
        reaction = np.flatnonzero(self.target_code >= 0)
        target = self.target_code[reaction]
        row = np.searchsorted(key, target * stride + rank[reaction], "right") - 1
        found = row >= self._offsets[target]
        attached = np.full(len(self.ts), -1, np.int64)
        attached[reaction[found]] = row[found]
        _frozen(attached)
        return attached

    def attachments(self, user: str, authors) -> tuple[np.ndarray, np.ndarray]:
        """Of each reaction by `user` to one of `authors` that attaches to an
        event: its position in the user's events and the attached event's row."""
        span = self.user_slice(user)
        codes = [self.codes[a] for a in authors if a in self.codes]
        rows = self._attached_row[span]
        position = np.flatnonzero((rows >= 0) & np.isin(self.target_code[span], codes))
        return position, rows[position]

    def attached_reactions(self, user: str, authors) -> list[tuple[int, str, int]]:
        """`(position in the user's events, target author, index in the target's
        events)` of each reaction by `user` to one of `authors`, attached to the
        target's latest event at or before it; reactions before any are left out."""
        position, rows = self.attachments(user, authors)
        target = self.user_code[rows]
        index = rows - self._offsets[target]
        names = self.names
        return [
            (k, names[t], i)
            for k, t, i in zip(position.tolist(), target.tolist(), index.tolist())
        ]

    def window_days(self) -> int:
        """Number of distinct local calendar days spanned by the trace."""
        if not len(self.ts):
            raise ValueError("the trace is empty; its window is undefined")
        off = 60 * self.tz_offset_minutes
        first = (int(self.ts.min()) + off) // SECONDS_PER_DAY
        last = (int(self.ts.max()) + off) // SECONDS_PER_DAY
        return last - first + 1


class FollowGraph:
    """Directed follow edges (follower -> followee); duplicates collapsed and
    self-loops dropped."""

    def __init__(self, edges):
        followees: dict[str, set[str]] = {}
        followers: dict[str, set[str]] = {}
        users: set[str] = set()
        for follower, followee in edges:
            users.add(follower)
            users.add(followee)
            if follower == followee:
                continue
            followees.setdefault(follower, set()).add(followee)
            followers.setdefault(followee, set()).add(follower)
        self._followees = {u: tuple(sorted(v)) for u, v in followees.items()}
        self._followers = {u: tuple(sorted(v)) for u, v in followers.items()}
        self._users = frozenset(users)

    def __contains__(self, user: str) -> bool:
        return user in self._users

    def users(self) -> tuple[str, ...]:
        return tuple(sorted(self._users))

    def followees_of(self, user: str) -> tuple[str, ...]:
        return self._followees.get(user, ())

    def followers_of(self, user: str) -> tuple[str, ...]:
        return self._followers.get(user, ())


def slot_of(ts, slots: int, tz_offset_minutes: int = 0):
    """Slot index of a unix timestamp under an even division of the local day;
    an int64 array of timestamps gives an array of slots."""
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if SECONDS_PER_DAY % slots != 0:
        raise ValueError(f"slots must divide 86400 seconds, got {slots}")
    # Both terms are reduced first, so an int64 timestamp near the range end cannot wrap.
    local = (ts % SECONDS_PER_DAY + 60 * tz_offset_minutes % SECONDS_PER_DAY) % SECONDS_PER_DAY
    slot = local // (SECONDS_PER_DAY // slots)
    return slot if isinstance(slot, np.ndarray) else int(slot)


def _slot_counts(trace: ActivityTrace, users, slots: int) -> np.ndarray:
    """Events per local slot of the given users together."""
    ts = trace.timestamps(*users)
    return np.bincount(slot_of(ts, slots, trace.tz_offset_minutes), minlength=slots)


def _session_starts(ts, gap_hours: float) -> np.ndarray:
    """Indices of the timestamps that start a session: the first, and each one
    more than `gap_hours` (finite and positive) after its predecessor.

    Gaps compare exactly as Python ints would. Differences are taken mod 2**64,
    exact wherever a timestamp does not precede its predecessor (the only place
    a gap can start a session), and compared with the gap's whole seconds.
    """
    if not (math.isfinite(gap_hours) and gap_hours > 0):
        raise ValueError(f"gap_hours must be finite and > 0, got {gap_hours}")
    gap = gap_hours * 3600.0
    limit = np.uint64(math.floor(gap) if gap < 2.0**64 else 2**64 - 1)
    ts = np.asarray(ts, np.int64)
    prev, cur = ts[:-1], ts[1:]
    step = cur.view(np.uint64) - prev.view(np.uint64)
    return np.flatnonzero(np.concatenate(([len(ts) > 0], (cur >= prev) & (step > limit))))


def split_sessions(events, gap_hours: float = 8.0) -> list[list[Event]]:
    """Split a user's events into sessions separated by gaps over `gap_hours`,
    which must be finite and positive."""
    events = list(events)
    bounds = _session_starts([ev.ts for ev in events], gap_hours).tolist() + [len(events)]
    return [events[a:b] for a, b in zip(bounds, bounds[1:])]


def estimate_login_slot(
    events, slots: int, gap_hours: float = 8.0, tz_offset_minutes: int = 0
) -> int:
    """Median start slot: a start event follows an inactive period over
    `gap_hours` (the user's first event always counts). Even counts take the
    lower median. `events` may also be the user's timestamps as an int64 array."""
    ts = events if isinstance(events, np.ndarray) else np.array([ev.ts for ev in events], np.int64)
    starts = _session_starts(ts, gap_hours)
    if not len(starts):
        raise ValueError("at least one event is required to estimate a login slot")
    start_slots = np.sort(slot_of(ts[starts], slots, tz_offset_minutes))
    return int(start_slots[(len(start_slots) - 1) // 2])


def estimate_rho(mu: float) -> float:
    """Quit tendency from mean posts consumed per login: rho = 1 / (1 + mu)."""
    if mu < 0:
        raise ValueError(f"mean consumption depth must be >= 0, got {mu}")
    return 1.0 / (1.0 + mu)


def consumption_depth_mu(
    follower: str,
    graph: FollowGraph,
    trace: ActivityTrace,
    gap_hours: float = 8.0,
    fallback: float | None = None,
) -> float:
    """Mean consumption depth per login session.

    Each session's sample is the depth of the deepest followee event the
    follower reacted to in it; a reaction attaches to its target's latest event
    at or before it. The depth is 1 plus the followee events newer than the
    reacted one and not newer than the reaction: events sharing the reacted
    event's timestamp never count, wherever the timeline lists them. Sessions
    without resolvable reactions contribute nothing; a follower with no
    samples gets `fallback`, or an EstimationError when none is configured.
    """
    followees = graph.followees_of(follower)
    own = trace.timestamps(follower)
    starts = _session_starts(own, gap_hours)
    position, attached = trace.attachments(follower, followees)
    feed_ts = np.sort(trace.timestamps(*followees))
    above = np.searchsorted(feed_ts, own[position], "right")
    above -= np.searchsorted(feed_ts, trace.ts[attached], "right")
    session_of = np.searchsorted(starts, position, "right") - 1
    deepest = np.zeros(len(starts), dtype=np.int64)
    np.maximum.at(deepest, session_of, above + 1)
    samples = deepest[deepest > 0]
    if not len(samples):
        if fallback is not None:
            return float(fallback)
        raise EstimationError(
            f"follower {follower!r} has no reaction-based consumption samples "
            "and no fallback was configured"
        )
    return float(samples.sum()) / len(samples)


def tie_strength(follower: str, producer: str, trace: ActivityTrace) -> float:
    """Reactions by the follower targeting the producer, per producer post."""
    producer_posts = len(trace.timestamps(producer))
    if producer_posts == 0:
        raise ValueError(f"producer {producer!r} has no posts in the trace window")
    targets = trace.target_code[trace.user_slice(follower)]
    return int(np.count_nonzero(targets == trace.codes[producer])) / producer_posts


def estimate_deltas(
    followers, producer: str, trace: ActivityTrace, default: float = 0.5
) -> dict[str, float]:
    """Monotony tolerance per follower: tie strengths scaled by the population
    maximum. When nobody ever reacted to the producer, everyone receives the
    configured default."""
    strengths = {f: tie_strength(f, producer, trace) for f in followers}
    top = max(strengths.values(), default=0.0)
    if top == 0.0:
        return {f: default for f in strengths}
    return {f: s / top for f, s in strengths.items()}


def estimate_delta(
    follower: str,
    producer: str,
    trace: ActivityTrace,
    population,
    default: float = 0.5,
) -> float:
    deltas = estimate_deltas(population, producer, trace, default)
    if follower not in deltas:
        raise ValueError(f"follower {follower!r} is not part of the given population")
    return deltas[follower]


def aggregate_competitors(
    follower: str,
    producer: str,
    graph: FollowGraph,
    trace: ActivityTrace,
    slots: int,
) -> tuple[float, ...]:
    """Mean daily posts per slot by the follower's followees other than the
    producer, averaged over the days spanned by the trace window."""
    days = trace.window_days()
    others = [a for a in graph.followees_of(follower) if a != producer]
    return tuple((_slot_counts(trace, others, slots) / days).tolist())


def activity_histogram(
    users, trace: ActivityTrace, slots: int, mean_center: bool = False
) -> np.ndarray:
    """(user x slot) event counts, optionally mean-centered along each row."""
    rows = [_slot_counts(trace, [u], slots) for u in users]
    grid = np.array(rows, dtype=float).reshape(len(rows), slots)
    if mean_center:
        grid = grid - grid.mean(axis=1, keepdims=True)
    return grid


def _reaction_rate(kind_codes: np.ndarray) -> float:
    if not len(kind_codes):
        return 0.0
    return int(np.count_nonzero(kind_codes != EVENT_KINDS.index("post"))) / len(kind_codes)


def build_instance(
    producer: str,
    graph: FollowGraph,
    trace: ActivityTrace,
    slots: int,
    budget: int,
    *,
    gap_hours: float = 8.0,
    rho_default: float = 0.5,
    delta_default: float = 0.5,
    gamma_mode: str = "one",
    **survival,
) -> ProblemInstance:
    """Assemble a problem instance for the producer's followers; `survival`
    passes the survival families and their settings to `ProblemInstance`.

    Fallbacks: followers without events get sigma = 0; followers without
    reaction samples get the population-median consumption depth; when no
    follower has samples at all, everyone gets `rho_default`. A producer with
    no posts in the window yields `delta_default` for everyone.
    """
    if gamma_mode not in ("one", "reaction-rate"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    followers = graph.followers_of(producer)
    if not followers:
        raise EstimationError(f"producer {producer!r} has no followers in the graph")

    tz = trace.tz_offset_minutes
    raw_mu: dict[str, float | None] = {}
    for f in followers:
        try:
            raw_mu[f] = consumption_depth_mu(f, graph, trace, gap_hours)
        except EstimationError:
            raw_mu[f] = None
    observed = [m for m in raw_mu.values() if m is not None]
    median_mu = statistics.median(observed) if observed else None

    if len(trace.timestamps(producer)):
        deltas = estimate_deltas(followers, producer, trace, delta_default)
    else:
        deltas = {f: delta_default for f in followers}

    profiles = []
    for f in followers:
        rows = trace.user_slice(f)
        ts = trace.ts[rows]
        sigma = estimate_login_slot(ts, slots, gap_hours, tz) if len(ts) else 0
        mu = raw_mu[f] if raw_mu[f] is not None else median_mu
        rho = estimate_rho(mu) if mu is not None else rho_default
        gamma = 1.0 if gamma_mode == "one" else _reaction_rate(trace.kind_code[rows])
        profiles.append(
            FollowerProfile(
                id=f,
                sigma=sigma,
                rho=rho,
                delta=deltas[f],
                gamma=gamma,
                competitor_load=aggregate_competitors(f, producer, graph, trace, slots),
            )
        )
    return ProblemInstance(slots=slots, budget=budget, followers=tuple(profiles), **survival)
