"""The trace reader and trace consumers as they were before the trace became
columnar: one frozen `Event` per line, per-user `Event` tuples, and one
`searchsorted` per reaction. Kept verbatim as the oracle of
`test_trace_oracle.py` and `test_estimate.py`; only the imports are new.
`slot_of` and `estimate_rho`, whose code did not change, are imported; no
estimator is. `_slot_counts`, `aggregate_competitors` and `activity_histogram`
are the per-follower code of the columnar trace, kept verbatim from before it
became one-follower calls of `build_instance`'s pass. `attached_reactions`
puts a columnar trace's `attachments` in the form of
`ActivityTrace.attached_reactions` below.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

from feedsched.analyze import TimelinePost, _Columns, _frozen
from feedsched.estimate import (
    EstimationError,
    Event,
    FollowGraph,
    estimate_rho,
    slot_of,
)
from feedsched.formats import TraceFormatError
from feedsched.model import FollowerProfile, ProblemInstance

SECONDS_PER_DAY = 86400
_NO_TIMESTAMPS = np.empty(0, np.int64)


class Timeline(_Columns):
    """One user's timeline, newest first, as columns: each post's timestamp,
    author code (an index into `authors`, which is sorted, so code order is
    name order), index in its author's events, and reacted flag. Items are
    `TimelinePost` views."""

    def __init__(self, authors, events, ts, code, index, reacted):
        self.authors = authors
        self._events = events  # per author code, that author's events
        self.ts, self.code, self.index, self.reacted = ts, code, index, reacted
        _frozen(ts, code, index, reacted)

    def __len__(self) -> int:
        return len(self.ts)

    def _item(self, k: int) -> TimelinePost:
        code = self.code[k]
        kind = self._events[code][self.index[k]].kind
        return TimelinePost(int(self.ts[k]), self.authors[code], kind, bool(self.reacted[k]))


class ActivityTrace:
    """Timestamped events, sorted ascending per user after ingestion."""

    def __init__(self, events, tz_offset_minutes: int = 0):
        self.tz_offset_minutes = int(tz_offset_minutes)
        self.events: tuple[Event, ...] = tuple(sorted(events, key=lambda e: e.ts))
        by_user: dict[str, list[Event]] = {}
        for ev in self.events:
            by_user.setdefault(ev.user, []).append(ev)
        self._by_user = {u: tuple(evs) for u, evs in by_user.items()}
        self._ts = {u: np.array([ev.ts for ev in evs], np.int64) for u, evs in by_user.items()}
        for ts in self._ts.values():
            ts.flags.writeable = False

    def __len__(self) -> int:
        return len(self.events)

    def users(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_user))

    def events_by_user(self, user: str) -> tuple[Event, ...]:
        return self._by_user.get(user, ())

    def timestamps(self, *users: str) -> np.ndarray:
        """The given users' timestamps as one int64 array, user after user, each
        in `events_by_user` order (equal timestamps in ingestion order). Callers
        must not write to it."""
        parts = [self._ts.get(u, _NO_TIMESTAMPS) for u in users]
        return parts[0] if len(parts) == 1 else np.concatenate(parts + [_NO_TIMESTAMPS])

    def attached_reactions(self, user: str, authors) -> list[tuple[int, str, int]]:
        """`(position in the user's events, target author, index in the target's
        events)` of each reaction by `user` to one of `authors`, attached to the
        target's latest event at or before it; reactions before any are left out."""
        authors = set(authors)
        attached = []
        for k, ev in enumerate(self.events_by_user(user)):
            if ev.is_reaction and ev.target_author in authors:
                idx = int(np.searchsorted(self.timestamps(ev.target_author), ev.ts, "right")) - 1
                if idx >= 0:
                    attached.append((k, ev.target_author, idx))
        return attached

    def window_days(self) -> int:
        """Number of distinct local calendar days spanned by the trace."""
        if not self.events:
            raise ValueError("the trace is empty; its window is undefined")
        off = 60 * self.tz_offset_minutes
        first = (self.events[0].ts + off) // SECONDS_PER_DAY
        last = (self.events[-1].ts + off) // SECONDS_PER_DAY
        return int(last - first + 1)


def split_sessions(events, gap_hours: float = 8.0) -> list[list[Event]]:
    """Split a user's events into sessions separated by gaps over `gap_hours`,
    which must be finite and positive."""
    if not (math.isfinite(gap_hours) and gap_hours > 0):
        raise ValueError(f"gap_hours must be finite and > 0, got {gap_hours}")
    gap = gap_hours * 3600.0
    sessions: list[list[Event]] = []
    for ev in events:
        if sessions and ev.ts - sessions[-1][-1].ts <= gap:
            sessions[-1].append(ev)
        else:
            sessions.append([ev])
    return sessions


def estimate_login_slot(
    events, slots: int, gap_hours: float = 8.0, tz_offset_minutes: int = 0
) -> int:
    """Median start slot: a start event follows an inactive period over
    `gap_hours` (the user's first event always counts). Even counts take the
    lower median."""
    sessions = split_sessions(events, gap_hours)
    if not sessions:
        raise ValueError("at least one event is required to estimate a login slot")
    start_slots = sorted(slot_of(s[0].ts, slots, tz_offset_minutes) for s in sessions)
    return start_slots[(len(start_slots) - 1) // 2]


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
    sessions = split_sessions(trace.events_by_user(follower), gap_hours)
    attached = trace.attached_reactions(follower, followees)
    position = [k for k, _, _ in attached]
    feed_ts = np.sort(trace.timestamps(*followees))
    above = np.searchsorted(feed_ts, trace.timestamps(follower)[position], "right")
    above -= np.searchsorted(feed_ts, [trace.timestamps(a)[i] for _, a, i in attached], "right")
    session_of = np.searchsorted(np.cumsum([len(s) for s in sessions]), position, "right")
    deepest = np.zeros(len(sessions), dtype=np.int64)
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
    producer_posts = len(trace.events_by_user(producer))
    if producer_posts == 0:
        raise ValueError(f"producer {producer!r} has no posts in the trace window")
    reactions = sum(
        1
        for ev in trace.events_by_user(follower)
        if ev.is_reaction and ev.target_author == producer
    )
    return reactions / producer_posts


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


def _slot_counts(trace: ActivityTrace, users, slots: int) -> np.ndarray:
    """Events per local slot of the given users together."""
    ts = trace.timestamps(*users)
    return np.bincount(slot_of(ts, slots, trace.tz_offset_minutes), minlength=slots)


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


def attached_reactions(trace, user: str, authors) -> list[tuple[int, str, int]]:
    """`ActivityTrace.attached_reactions` of a columnar `feedsched` trace, read
    off its `attachments`."""
    position, rows = trace.attachments(user, authors)
    target = trace.user_code[rows]
    index = rows - trace._offsets[target]
    names = trace.names
    return [
        (k, names[t], i)
        for k, t, i in zip(position.tolist(), target.tolist(), index.tolist())
    ]


def _reaction_rate(events) -> float:
    if not events:
        return 0.0
    return sum(1 for ev in events if ev.is_reaction) / len(events)


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

    if trace.events_by_user(producer):
        deltas = estimate_deltas(followers, producer, trace, delta_default)
    else:
        deltas = {f: delta_default for f in followers}

    profiles = []
    for f in followers:
        events = trace.events_by_user(f)
        sigma = (
            estimate_login_slot(events, slots, gap_hours, tz) if events else 0
        )
        mu = raw_mu[f] if raw_mu[f] is not None else median_mu
        rho = estimate_rho(mu) if mu is not None else rho_default
        gamma = 1.0 if gamma_mode == "one" else _reaction_rate(events)
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
def reconstruct_timeline(user: str, graph: FollowGraph, trace: ActivityTrace) -> Timeline:
    """All followee events newest first, with the owner's reactions attached.

    Equal timestamps order by author ascending, then ingestion order.
    """
    if user not in graph:
        raise ValueError(f"unknown user {user!r}")
    authors = graph.followees_of(user)  # sorted by name
    events = tuple(trace.events_by_user(a) for a in authors)
    lengths = np.array([len(evs) for evs in events], np.int64)
    first = np.cumsum(lengths) - lengths
    ts = trace.timestamps(*authors)
    code = np.repeat(np.arange(len(authors)), lengths)
    index = np.arange(len(ts)) - np.repeat(first, lengths)
    reacted = np.zeros(len(ts), bool)
    offset = dict(zip(authors, first.tolist()))
    reacted[[offset[a] + i for _, a, i in trace.attached_reactions(user, authors)]] = True
    # ~ts, not -ts: it reverses the order without overflow at ts = -2**63.
    order = np.lexsort((index, code, ~ts))
    return Timeline(authors, events, ts[order], code[order], index[order], reacted[order])


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


def load_trace(path, tz_offset_minutes: int = 0) -> ActivityTrace:
    path = Path(path)
    events = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise TraceFormatError(f"{path}:{lineno}: expected a JSON object")
            try:
                events.append(Event(obj["user"], obj["ts"], obj["kind"], obj.get("target_author")))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    if not events:
        raise TraceFormatError(f"{path}:1: the trace file contains no events")
    return ActivityTrace(events, tz_offset_minutes=tz_offset_minutes)


