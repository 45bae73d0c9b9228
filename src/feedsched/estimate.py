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

from .model import Followers, ProblemInstance, _frozen

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
# A step of more than this many hours between a user's events starts a session.
DEFAULT_GAP_HOURS = 8.0
# `build_instance`'s rho and delta where the trace gives no estimate at all.
DEFAULT_FALLBACK = 0.5
# `build_instance`'s gamma, the default first: 1, or each follower's reactions per event.
GAMMA_MODES = ("one", "reaction-rate")


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
        """The rows of the given users' events, user after user, and each user's
        event count, 0 for a name without events. Users in name order give ascending rows."""
        code = _codes(self, users)
        counts = np.append(np.diff(self._offsets), 0)[code]
        return _spans(self._offsets[code], counts), counts

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
    def _rank(self) -> np.ndarray:
        """Per row, the dense rank of its timestamp among the trace's timestamps.
        The sorted distinct timestamps, then one binary search per row: about
        33 bytes of scratch per row, where `return_inverse` takes about 49.
        `return_counts` keeps `np.unique` sorting: for the values alone, numpy
        2.4 builds a hash table instead, about six times slower here."""
        rank = np.searchsorted(np.unique(self.ts, return_counts=True)[0], self.ts)
        _frozen(rank)
        return rank

    @functools.cached_property
    def _key(self) -> np.ndarray:
        """Per row, user code * (rows + 1) + `_rank`. It ascends with the rows, and
        ranks stand in for timestamps, so it cannot overflow at the int64 ends."""
        key = self._rank + self.user_code * (len(self.ts) + 1)
        _frozen(key)
        return key

    @functools.cached_property
    def _attached_row(self) -> np.ndarray:
        """Per row, the row of the event a reaction attaches to, its target's
        latest event at or before it; -1 for posts and unattached reactions. A
        post's target code, -1, reads the last offset, which no row reaches."""
        target = self.target_code
        row = np.searchsorted(self._key, self._rank + target * (len(target) + 1), "right") - 1
        attached = np.where(row >= self._offsets[target], row, -1)
        _frozen(attached)
        return attached

    def attachments(self, user: str, authors) -> tuple[np.ndarray, np.ndarray]:
        """Of each reaction by `user` to one of `authors` that attaches to an
        event: its position in the user's events and the attached event's row."""
        span = self.user_slice(user)
        wanted = np.zeros(len(self.names), bool)
        wanted[[self.codes[a] for a in authors if a in self.codes]] = True
        rows = self._attached_row[span]
        # Only attached rows are looked up, so a post's target code of -1 never is.
        position = np.flatnonzero(rows >= 0)
        position = position[wanted[self.target_code[span][position]]]
        return position, rows[position]

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


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges `start, start + 1, ..., start + count - 1` of each (start,
    count) pair, one after another, as one int64 array."""
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    shift += np.arange(len(shift))
    return shift


def _gap_limit(gap_hours: float) -> np.uint64:
    """The whole seconds of a session gap of `gap_hours`, which must be finite
    and positive: a timestamp step above it starts a session."""
    if not (math.isfinite(gap_hours) and gap_hours > 0):
        raise ValueError(f"gap_hours must be finite and > 0, got {gap_hours}")
    gap = gap_hours * 3600.0
    return np.uint64(math.floor(gap) if gap < 2.0**64 else 2**64 - 1)


def _session_starts(ts, limit: np.uint64, owner=None) -> np.ndarray:
    """Indices of the timestamps that start a session: the first, each one more
    than `limit` seconds (see `_gap_limit`) after its predecessor and, when
    `owner` gives each timestamp's user, each one whose user differs from its
    predecessor's.

    Gaps compare exactly as Python ints would. Differences are taken mod 2**64,
    exact wherever a timestamp does not precede its predecessor (the only place
    a gap can start a session), and compared with the gap's whole seconds.
    """
    ts = np.asarray(ts, np.int64)
    prev, cur = ts[:-1], ts[1:]
    step = cur.view(np.uint64) - prev.view(np.uint64)
    new = (cur >= prev) & (step > limit)
    if owner is not None:
        new |= owner[1:] != owner[:-1]
    return np.flatnonzero(np.concatenate(([len(ts) > 0], new)))


def split_sessions(events, gap_hours: float = DEFAULT_GAP_HOURS) -> list[list[Event]]:
    """Split a user's events into sessions separated by gaps over `gap_hours`,
    which must be finite and positive."""
    events = list(events)
    starts = _session_starts([ev.ts for ev in events], _gap_limit(gap_hours))
    bounds = starts.tolist() + [len(events)]
    return [events[a:b] for a, b in zip(bounds, bounds[1:])]


def _codes(trace: ActivityTrace, names) -> np.ndarray:
    """Each name's code in the trace; -1, a trailing zero in per-name counts, outside it."""
    return np.fromiter(map(trace.codes.get, names, itertools.repeat(-1)), np.int64)


def _slot_table(trace: ActivityTrace, slots: int) -> np.ndarray:
    """Events per (name code, local slot), and a trailing zero row for other names."""
    cell = trace.user_code * slots
    cell += slot_of(trace.ts, slots, trace.tz_offset_minutes)
    return np.bincount(cell, minlength=(len(trace.names) + 1) * slots).reshape(-1, slots)


def _login_slots(start_owner, start_ts, owners: int, slots: int, tz: int) -> np.ndarray:
    """Per owner 0..owners-1, the lower median slot of its starts (owners ascending); 0 if none."""
    n_starts = np.bincount(start_owner, minlength=owners)
    active = n_starts > 0
    ranked = np.sort(start_owner * slots + slot_of(start_ts, slots, tz))
    middle = np.cumsum(n_starts) - n_starts + (n_starts - 1) // 2
    sigma = np.zeros(owners, np.intp)
    sigma[active] = ranked[middle[active]] % slots
    return sigma


def _tie_strengths(followers, producer: str, trace: ActivityTrace) -> np.ndarray:
    """Reactions by each follower targeting the producer, per producer post."""
    posts = len(trace.timestamps(producer))
    if posts == 0:
        raise ValueError(f"producer {producer!r} has no posts in the trace window")
    tied = trace.user_code[trace.target_code == trace.codes[producer]]
    return np.bincount(tied, minlength=len(trace.names) + 1)[_codes(trace, followers)] / posts


def _deltas(followers, producer: str, trace: ActivityTrace, default: float) -> np.ndarray:
    """Tie strengths over their maximum; `default` for all when it is 0."""
    strength = _tie_strengths(followers, producer, trace)
    top = strength.max(initial=0.0)
    return strength / top if top != 0.0 else np.full(len(strength), default)


_BLOCK = 1 << 14  # work units of one follower block in `_follower_columns`


def _follower_columns(followers, producer, graph: FollowGraph, trace: ActivityTrace,
                      slots: int, limit: np.uint64):
    """Per follower, in one pass over the trace columns: login slot (0 without
    events), summed session depth, sampled sessions, events, reactions and the
    slot counts of its followees but `producer`; `limit` is `_gap_limit`'s.
    Blocks of followers hold under `_BLOCK` work units (an event, a (reaction,
    followee) pair or a (followee, slot) cell) plus their last follower's, so
    scratch is a block's, the followers' event rows and a (name x slot) table;
    the trace keeps its rank, key and attached rows for the next call."""
    tz, n, names = trace.tz_offset_minutes, len(followers), len(trace.names)

    # Events per (name, slot), the producer's cleared: competitor loads leave it out.
    table = _slot_table(trace, slots)
    if producer in trace.codes:
        table[trace.codes[producer]] = 0

    # The followers' rows, follower j's at all_rows[at[j] : at[j + 1]], events and reactions.
    all_rows, events = trace.rows(followers)
    at = np.concatenate(([0], np.cumsum(events)))
    reactions = np.bincount(trace.user_code[trace.target_code >= 0], minlength=names + 1)
    reactions = reactions[_codes(trace, followers)]

    # Each follower's followees in the trace, by name code, follower after follower.
    followees = list(map(graph.followees_of, followers))
    listed = np.fromiter(map(len, followees), np.int64, n)
    fe_code = _codes(trace, itertools.chain.from_iterable(followees))
    kept = np.concatenate(([0], np.cumsum(fe_code >= 0)))  # kept before each entry
    ends = np.cumsum(listed)
    fe_first, fe_end = kept[ends - listed], kept[ends]
    fe_len = fe_end - fe_first
    fe_code = fe_code[fe_code >= 0]

    rank, key, stride = trace._rank, trace._key, len(trace) + 1
    sigma, (depth_sum, sampled) = np.zeros(n, np.intp), np.zeros((2, n), np.int64)
    load = np.empty((n, slots), np.int64)
    work = events + reactions * fe_len + fe_len * slots
    cuts = (np.flatnonzero(np.diff((np.cumsum(work) - work) // _BLOCK)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        part, local = slice(lo, hi), np.arange(hi - lo)
        rows = all_rows[at[lo] : at[hi]]
        owner = np.repeat(local, events[part])
        ts = trace.ts[rows]
        starts = _session_starts(ts, limit, owner)
        start_owner = owner[starts]
        sigma[part] = _login_slots(start_owner, ts[starts], hi - lo, slots, tz)

        # Consumption depth: the reactions to a followee that attach to an event.
        block_fe = fe_code[fe_first[lo] : fe_end[hi - 1]]
        follows = np.repeat(local, fe_len[part]) * names + block_fe
        target = trace.target_code[rows]
        react = np.flatnonzero(target >= 0)
        asked = owner[react] * names + target[react]
        # `follows` ascends; a key past its end meets the -1 appended.
        react = react[np.append(follows, -1)[np.searchsorted(follows, asked)] == asked]
        attached = trace._attached_row[rows[react]]
        react, attached = react[attached >= 0], attached[attached >= 0]
        # Depth: 1 + the events of the follower's followees newer than the
        # attached event and not newer than the reaction, counted per followee
        # as the keys between their two (followee code, ts rank) keys.
        who = owner[react]
        pairs = fe_len[part][who]
        base = block_fe[_spans(fe_first[part][who] - fe_first[lo], pairs)] * stride
        newer = np.searchsorted(key, base + np.repeat(rank[rows[react]], pairs), "right")
        newer -= np.searchsorted(key, base + np.repeat(rank[attached], pairs), "right")
        depth = np.add.reduceat(newer, np.cumsum(pairs) - pairs) + 1
        # Each session's sample is its deepest reaction.
        deepest = np.zeros(len(starts), np.int64)
        np.maximum.at(deepest, np.searchsorted(starts, react, "right") - 1, depth)
        sessions = np.flatnonzero(deepest)
        np.add.at(depth_sum[part], start_owner[sessions], deepest[sessions])
        sampled[part] = np.bincount(start_owner[sessions], minlength=hi - lo)

        # Competitor load: the slot counts summed over the follower's followees.
        summed = np.zeros((len(block_fe) + 1, slots), np.int64)
        np.cumsum(table[block_fe], axis=0, out=summed[1:])
        ends = fe_end[part] - fe_first[lo]
        load[part] = summed[ends] - summed[ends - fe_len[part]]
    return sigma, depth_sum, sampled, events, reactions, load


def estimate_login_slot(
    events, slots: int, gap_hours: float = DEFAULT_GAP_HOURS, tz_offset_minutes: int = 0
) -> int:
    """Median start slot: a start event follows an inactive period over
    `gap_hours` (the user's first event always counts). Even counts take the
    lower median. `events` may also be the user's timestamps as an int64 array."""
    ts = events if isinstance(events, np.ndarray) else np.array([ev.ts for ev in events], np.int64)
    starts = _session_starts(ts, _gap_limit(gap_hours))
    if not len(starts):
        raise ValueError("at least one event is required to estimate a login slot")
    return int(_login_slots(np.zeros_like(starts), ts[starts], 1, slots, tz_offset_minutes)[0])


def estimate_rho(mu: float) -> float:
    """Quit tendency from mean posts consumed per login: rho = 1 / (1 + mu)."""
    if mu < 0:
        raise ValueError(f"mean consumption depth must be >= 0, got {mu}")
    return 1.0 / (1.0 + mu)


def consumption_depth_mu(
    follower: str,
    graph: FollowGraph,
    trace: ActivityTrace,
    gap_hours: float = DEFAULT_GAP_HOURS,
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
    # One slot will do: only the depth columns are read.
    columns = _follower_columns((follower,), None, graph, trace, 1, _gap_limit(gap_hours))
    depth_sum, sampled = columns[1][0], columns[2][0]
    if not sampled:
        if fallback is not None:
            return float(fallback)
        raise EstimationError(
            f"follower {follower!r} has no reaction-based consumption samples "
            "and no fallback was configured"
        )
    return float(depth_sum) / int(sampled)


def tie_strength(follower: str, producer: str, trace: ActivityTrace) -> float:
    """Reactions by the follower targeting the producer, per producer post."""
    return float(_tie_strengths((follower,), producer, trace)[0])


def estimate_deltas(
    followers, producer: str, trace: ActivityTrace, default: float = DEFAULT_FALLBACK
) -> dict[str, float]:
    """Monotony tolerance per follower: tie strengths scaled by the population
    maximum. When nobody ever reacted to the producer, everyone receives the
    configured default."""
    followers = tuple(followers)
    deltas = _deltas(followers, producer, trace, default).tolist() if followers else []
    return dict(zip(followers, deltas))


def estimate_delta(follower: str, producer: str, trace: ActivityTrace, population,
                   default: float = DEFAULT_FALLBACK) -> float:
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
    # Any gap will do: only the load column is read.
    limit = _gap_limit(DEFAULT_GAP_HOURS)
    *_, (load,) = _follower_columns((follower,), producer, graph, trace, slots, limit)
    return tuple((load / days).tolist())


def activity_histogram(
    users, trace: ActivityTrace, slots: int, mean_center: bool = False
) -> np.ndarray:
    """(user x slot) event counts, optionally mean-centered along each row."""
    grid = _slot_table(trace, slots)[_codes(trace, users)].astype(float)
    if mean_center:
        grid = grid - grid.mean(axis=1, keepdims=True)
    return grid


def build_instance(
    producer: str,
    graph: FollowGraph,
    trace: ActivityTrace,
    slots: int,
    budget: int,
    *,
    gap_hours: float = DEFAULT_GAP_HOURS,
    rho_default: float = DEFAULT_FALLBACK,
    delta_default: float = DEFAULT_FALLBACK,
    gamma_mode: str = GAMMA_MODES[0],
    **survival,
) -> ProblemInstance:
    """Assemble a problem instance for the producer's followers; `survival`
    passes the survival families and their settings to `ProblemInstance`.

    Fallbacks: followers without events get sigma = 0; followers without
    reaction samples get the population-median consumption depth; when no
    follower has samples at all, everyone gets `rho_default`. A producer with
    no posts in the window yields `delta_default` for everyone.

    All followers are estimated in one pass over the trace columns; the
    per-follower estimators are that pass, or its rule helpers, on one follower.
    """
    if gamma_mode not in GAMMA_MODES:
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    followers = graph.followers_of(producer)
    if not followers:
        raise EstimationError(f"producer {producer!r} has no followers in the graph")
    limit = _gap_limit(gap_hours)
    days, n = trace.window_days(), len(followers)
    sigma, depth_sum, sampled, events, reactions, load = _follower_columns(
        followers, producer, graph, trace, slots, limit
    )
    has = sampled > 0
    if has.any():
        mu = depth_sum[has] / sampled[has]
        rho = np.full(n, estimate_rho(statistics.median(mu.tolist())))
        rho[has] = 1.0 / (1.0 + mu)
    else:
        rho = [rho_default] * n
    delta = [delta_default] * n
    if len(trace.timestamps(producer)):
        delta = _deltas(followers, producer, trace, delta_default)
    if gamma_mode == "one":
        gamma = np.ones(n)
    else:
        gamma = np.divide(reactions, events, out=np.zeros(n), where=events > 0)
    columns = Followers(followers, sigma, rho, delta, gamma, load / days)
    return ProblemInstance(slots=slots, budget=budget, followers=columns, **survival)
