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

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .model import FollowerProfile, ProblemInstance

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
_NO_TIMESTAMPS = np.empty(0, np.int64)


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
