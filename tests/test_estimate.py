"""Parameter estimation from traces: login slots, rho, mu, delta, loads."""

import statistics
import tracemalloc

import numpy as np
import pytest
import reference_trace as ref

from feedsched import (
    ActivityTrace,
    EstimationError,
    Event,
    FollowerProfile,
    FollowGraph,
    activity_histogram,
    aggregate_competitors,
    build_instance,
    consumption_depth_mu,
    estimate_delta,
    estimate_deltas,
    estimate_login_slot,
    estimate_rho,
    reconstruct_timeline,
    slot_of,
)
from feedsched import estimate
from feedsched.estimate import split_sessions
from perfbench import generators

DAY = 86400


def at(day, hh, mm=0, ss=0):
    return day * DAY + hh * 3600 + mm * 60 + ss


def posts(user, stamps):
    return [Event(user, ts, "post") for ts in stamps]


class TestSlotOf:
    def test_midnight(self):
        assert slot_of(at(0, 0), 24) == 0

    def test_evening(self):
        assert slot_of(at(0, 18, 30), 24) == 18

    def test_offset_wraps_into_next_day(self):
        assert slot_of(at(0, 23, 59, 59), 24, tz_offset_minutes=60) == 0

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            slot_of(0, 7)

    @pytest.mark.parametrize("tz", [0, 60, -300, 10**9])
    def test_array_matches_scalar(self, tz):
        ts = np.array([0, at(0, 23, 59, 59), at(3, 7), -1, 2**63 - 1, -(2**63)], dtype=np.int64)
        slots = slot_of(ts, 24, tz)
        assert slots.tolist() == [slot_of(int(t), 24, tz) for t in ts]

    def test_negative_offset(self):
        assert slot_of(at(0, 0, 30), 24, tz_offset_minutes=-60) == 23


class TestEstimateLoginSlot:
    def test_daily_routine(self):
        events = []
        for d in range(7):
            events += posts("u", [at(d, 9), at(d, 9, 30), at(d, 12)])
        assert estimate_login_slot(events, 24) == 9

    def test_single_event(self):
        assert estimate_login_slot(posts("u", [at(0, 18, 5)]), 24) == 18

    def test_lower_median_on_even_counts(self):
        events = posts(
            "u", [at(0, 7), at(1, 9), at(2, 9), at(3, 22)]
        )  # start slots 7, 9, 9, 22
        assert estimate_login_slot(events, 24) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one event"):
            estimate_login_slot([], 24)

    def test_invariant_to_intra_session_padding(self):
        base = []
        for d in range(5):
            base += posts("u", [at(d, 9)])
        padded = []
        for d in range(5):
            padded += posts("u", [at(d, 9), at(d, 9, 10), at(d, 11)])
        assert estimate_login_slot(base, 24) == estimate_login_slot(padded, 24) == 9


class TestSplitSessions:
    def test_only_a_gap_over_the_threshold_starts_a_session(self):
        events = posts("u", [at(0, 9), at(0, 10), at(0, 18), at(1, 9)])
        assert [len(s) for s in split_sessions(events, gap_hours=8)] == [3, 1]

    @pytest.mark.parametrize("gap", [0.0, -1.0, float("nan"), float("inf")])
    def test_gap_must_be_finite_and_positive(self, gap):
        with pytest.raises(ValueError, match="gap_hours"):
            split_sessions(posts("u", [at(0, 9)]), gap)
        with pytest.raises(ValueError, match="gap_hours"):
            estimate_login_slot(posts("u", [at(0, 9)]), 24, gap)


class TestEstimateRho:
    def test_formula(self):
        assert estimate_rho(9.0) == pytest.approx(0.1)
        assert estimate_rho(1.0) == pytest.approx(0.5)

    def test_zero_consumption_quits_immediately(self):
        assert estimate_rho(0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            estimate_rho(-1.0)

    def test_recovers_geometric_consumer(self):
        rng = np.random.default_rng(71)
        for rho_true in (0.2, 0.5, 0.8):
            depths = rng.geometric(rho_true, size=20000) - 1
            assert estimate_rho(depths.mean()) == pytest.approx(rho_true, abs=0.02)


class TestConsumptionDepth:
    def make_graph(self):
        return FollowGraph([("f", "a"), ("f", "b")])

    def test_constant_depth(self):
        events = []
        for d in range(5):
            events += posts("a", [at(d, 10)])
            events += posts("b", [at(d, 10, 10), at(d, 10, 20), at(d, 10, 30)])
            events.append(Event("f", at(d, 11), "retweet", "a"))
        mu = consumption_depth_mu("f", self.make_graph(), ActivityTrace(events))
        assert mu == pytest.approx(4.0)

    def test_deepest_reaction_wins_within_session(self):
        events = posts("a", [at(0, 9)])
        events += posts("b", [at(0, 9, 10)])
        events.append(Event("f", at(0, 9, 20), "retweet", "a"))  # depth 2
        events += posts(
            "b",
            [at(0, 9, 25), at(0, 9, 30), at(0, 9, 35), at(0, 9, 40), at(0, 9, 45), at(0, 9, 50)],
        )
        events.append(Event("f", at(0, 10), "retweet", "a"))  # depth 8
        mu = consumption_depth_mu("f", self.make_graph(), ActivityTrace(events))
        assert mu == pytest.approx(8.0)

    def test_equal_timestamps_count_only_newer_posts(self):
        """Depth counts the followee posts newer than the reacted one, not its
        timeline position: c@150 and a@100 sit above the reacted b@100 on the
        timeline, but a@100 is not newer, so the depth is 2."""
        graph = FollowGraph([("f", "a"), ("f", "b"), ("f", "c")])
        trace = ActivityTrace(
            posts("a", [100]) + posts("b", [100]) + posts("c", [100, 150])
            + [Event("f", 200, "retweet", "b")]
        )
        timeline = reconstruct_timeline("f", graph, trace)
        assert [(p.author, p.ts, p.reacted) for p in timeline] == [
            ("c", 150, False), ("a", 100, False), ("b", 100, True), ("c", 100, False)
        ]
        assert consumption_depth_mu("f", graph, trace) == 2.0

    def test_fallback_used_when_no_reactions(self):
        events = posts("a", [at(0, 10)]) + posts("f", [at(0, 11)])
        mu = consumption_depth_mu("f", self.make_graph(), ActivityTrace(events), fallback=6.0)
        assert mu == 6.0

    def test_error_without_fallback(self):
        events = posts("a", [at(0, 10)]) + posts("f", [at(0, 11)])
        with pytest.raises(EstimationError, match="'f'"):
            consumption_depth_mu("f", self.make_graph(), ActivityTrace(events))


class TestEstimateDelta:
    def make_trace(self, reactions_per_follower):
        events = posts("prod", [at(d, 12) for d in range(10)])
        for f, r in reactions_per_follower.items():
            for k in range(r):
                events.append(Event(f, at(k, 13), "retweet", "prod"))
        return ActivityTrace(events)

    def test_normalized_by_population_maximum(self):
        trace = self.make_trace({"a": 1, "b": 2, "c": 4})
        deltas = estimate_deltas(["a", "b", "c"], "prod", trace)
        assert deltas == pytest.approx({"a": 0.25, "b": 0.5, "c": 1.0})

    def test_strongest_tie_is_one_and_zero_tie_is_zero(self):
        trace = self.make_trace({"a": 0, "b": 3})
        assert estimate_delta("b", "prod", trace, ["a", "b"]) == 1.0
        assert estimate_delta("a", "prod", trace, ["a", "b"]) == 0.0

    def test_all_zero_gets_default(self):
        trace = self.make_trace({"a": 0, "b": 0})
        deltas = estimate_deltas(["a", "b"], "prod", trace, default=0.5)
        assert deltas == {"a": 0.5, "b": 0.5}

    def test_zero_producer_posts_rejected(self):
        trace = ActivityTrace(posts("x", [at(0, 1)]))
        with pytest.raises(ValueError, match="'prod'"):
            estimate_deltas(["a"], "prod", trace)


class TestAggregateCompetitors:
    def test_no_other_followees(self):
        graph = FollowGraph([("f", "prod")])
        trace = ActivityTrace(posts("prod", [at(0, 1), at(1, 1)]))
        load = aggregate_competitors("f", "prod", graph, trace, 24)
        assert load == (0.0,) * 24

    def test_daily_rate(self):
        graph = FollowGraph([("f", "prod"), ("f", "c")])
        events = posts("c", [at(d, 13) for d in range(10)])
        load = aggregate_competitors("f", "prod", graph, trace=ActivityTrace(events), slots=24)
        assert load[13] == pytest.approx(1.0)
        assert sum(load) == pytest.approx(1.0)

    def test_two_competitors_over_two_days(self):
        graph = FollowGraph([("f", "c1"), ("f", "c2"), ("f", "prod")])
        events = posts("c1", [at(0, 5)]) + posts("c2", [at(1, 5)])
        load = aggregate_competitors("f", "prod", graph, ActivityTrace(events), 24)
        assert load[5] == pytest.approx(1.0)

    def test_doubling_events_doubles_loads(self):
        graph = FollowGraph([("f", "c"), ("f", "prod")])
        events = posts("c", [at(0, 3), at(0, 17), at(1, 3)])
        base = aggregate_competitors("f", "prod", graph, ActivityTrace(events), 24)
        doubled = aggregate_competitors("f", "prod", graph, ActivityTrace(events * 2), 24)
        assert doubled == tuple(2 * c for c in base)

    def test_empty_trace_rejected(self):
        graph = FollowGraph([("f", "c")])
        with pytest.raises(ValueError, match="empty"):
            aggregate_competitors("f", "prod", graph, ActivityTrace([]), 24)


class TestActivityHistogram:
    def test_empty_trace(self):
        grid = activity_histogram(["a", "b"], ActivityTrace([]), 24)
        assert grid.shape == (2, 24)
        assert not grid.any()

    def test_counts_land_in_slots(self):
        trace = ActivityTrace(posts("a", [at(0, 7), at(0, 7, 30), at(1, 7)]))
        grid = activity_histogram(["a"], trace, 24)
        assert grid[0, 7] == 3
        assert grid.sum() == 3

    def test_mean_centered_rows_sum_to_zero(self):
        trace = ActivityTrace(posts("a", [at(0, 7), at(0, 9)]))
        grid = activity_histogram(["a", "b"], trace, 24, mean_center=True)
        assert np.abs(grid.sum(axis=1)).max() < 1e-9


class TestGraphAndTrace:
    def test_graph_drops_self_loops_and_duplicates(self):
        graph = FollowGraph([("a", "b"), ("a", "b"), ("a", "a"), ("b", "c")])
        assert graph.followees_of("a") == ("b",)
        assert graph.followers_of("b") == ("a",)
        assert "a" in graph

    def test_trace_sorts_events(self):
        trace = ActivityTrace(posts("u", [at(1, 0), at(0, 0)]))
        assert [e.ts for e in trace.events_by_user("u")] == [at(0, 0), at(1, 0)]

    def test_event_validation(self):
        with pytest.raises(ValueError, match="target_author"):
            Event("u", 0, "retweet")
        with pytest.raises(ValueError, match="target_author"):
            Event("u", 0, "post", "x")
        with pytest.raises(ValueError, match="kind"):
            Event("u", 0, "like", "x")

    @pytest.mark.parametrize("ts", [1.9, True, 1e30, 2**63, -(2**63) - 1, float("nan"), "5"])
    def test_event_ts_must_be_an_int64_integer(self, ts):
        with pytest.raises(ValueError, match="int64"):
            Event("u", ts, "post")

    @pytest.mark.parametrize(
        "args, key",
        [((5, 0, "post"), "user"), (("u", 0, 3), "kind"), (("u", 0, "reply", 7), "target_author")],
    )
    def test_event_names_must_be_strings(self, args, key):
        with pytest.raises(ValueError, match=f"{key} must be a string"):
            ActivityTrace([Event(*args), Event("a", 3, "post")])

    def test_reactions_attach_to_latest_event_at_or_before(self):
        trace = ActivityTrace(
            posts("a", [10, 30, 30]) + posts("b", [40])
            + [
                Event("u", 5, "reply", "a"),  # precedes every a event: left out
                Event("u", 30, "retweet", "a"),  # the later of the two a@30
                Event("u", 50, "retweet", "b"),
                Event("u", 60, "retweet", "z"),  # not among the authors
            ]
        )
        assert ref.attached_reactions(trace, "u", ["a", "b"]) == [(1, "a", 2), (2, "b", 0)]
        assert trace.timestamps("a").tolist() == [10, 30, 30]
        assert trace.timestamps("ghost").tolist() == []


class TestBuildInstance:
    def test_pop_small_hand_audited_fields(self, data_dir):
        from feedsched.formats import load_graph, load_trace

        trace = load_trace(data_dir / "pop_small.trace.jsonl")
        graph = load_graph(data_dir / "pop_small.graph.csv")
        instance = build_instance("prod", graph, trace, 24, 6)
        by_id = {f.id: f for f in instance.followers}
        assert set(by_id) == {"f1", "f2", "f3"}

        f1, f2, f3 = by_id["f1"], by_id["f2"], by_id["f3"]
        assert (f1.sigma, f2.sigma, f3.sigma) == (9, 21, 7)
        # every follower consumes 2 posts per login (f2 via the population median)
        for f in (f1, f2, f3):
            assert f.rho == pytest.approx(1.0 / 3.0)
        assert f1.delta == 1.0
        assert f2.delta == 0.0
        assert f3.delta == pytest.approx(2.0 / 7.0)
        assert f1.competitor_load[12] == pytest.approx(1.0)
        assert sum(f1.competitor_load) == pytest.approx(1.0)
        assert f2.competitor_load[3] == pytest.approx(2.0)
        assert f3.competitor_load[3] == pytest.approx(2.0)
        assert f3.competitor_load[12] == pytest.approx(1.0)

    def test_degenerate_population_gets_fallbacks(self):
        graph = FollowGraph([("f", "prod")])
        trace = ActivityTrace(posts("f", [at(d, 14) for d in range(3)]))
        instance = build_instance("prod", graph, trace, 24, 5)
        (follower,) = instance.followers
        assert follower.sigma == 14
        assert follower.rho == 0.5
        assert follower.delta == 0.5
        assert follower.competitor_load == (0.0,) * 24

    def test_missing_producer_rejected(self):
        graph = FollowGraph([("f", "other")])
        trace = ActivityTrace(posts("f", [at(0, 1)]))
        with pytest.raises(EstimationError, match="'prod'"):
            build_instance("prod", graph, trace, 24, 5)

    def test_loads_bounded_by_busiest_followee(self, data_dir):
        from feedsched.formats import load_graph, load_trace

        trace = load_trace(data_dir / "pop_small.trace.jsonl")
        graph = load_graph(data_dir / "pop_small.graph.csv")
        instance = build_instance("prod", graph, trace, 24, 6)
        days = trace.window_days()
        max_posts = max(len(trace.events_by_user(u)) for u in trace.users())
        for f in instance.followers:
            assert max(f.competitor_load) <= max_posts / days

    def test_estimates_land_in_type_ranges(self, data_dir):
        from feedsched.formats import load_graph, load_trace

        trace = load_trace(data_dir / "pop_small.trace.jsonl")
        graph = load_graph(data_dir / "pop_small.graph.csv")
        instance = build_instance("prod", graph, trace, 24, 6, gamma_mode="reaction-rate")
        for f in instance.followers:
            assert 0 <= f.sigma < 24
            assert 0.0 <= f.rho <= 1.0
            assert 0.0 <= f.delta <= 1.0
            assert f.gamma >= 0.0
            assert all(c >= 0 for c in f.competitor_load)


# ------------------------------------------- the one-pass estimator, checked


MIN, MAX = -(2**63), 2**63 - 1


def hand_events():
    """Producer `p`; competitors `c1`-`c3`; followers `f1` (reactions of every
    kind), `f2` (follows only the producer), `f3` (posts only), `f4` (no
    events) and `c1` (a competitor that also follows). `f1` follows `ghost`,
    who is absent from the trace."""
    events = posts("p", [at(d, 12) for d in range(3)])
    events += posts("c1", [at(0, 9), at(0, 9, 30), at(1, 9), at(2, 20)])
    # c2@0 9:00 shares its timestamp with c1@0 9:00, and c2@1 9:00 with itself.
    events += posts("c2", [at(0, 9), at(1, 9), at(1, 9), at(2, 20)])
    events += posts("c3", [at(0, 3), at(1, 3)])
    events += [
        Event("f1", at(0, 8), "reply", "c1"),  # before any c1 event
        Event("f1", at(0, 9), "retweet", "c2"),  # same timestamp as its target
        Event("f1", at(0, 9, 45), "retweet", "c1"),
        Event("f1", at(0, 13), "retweet", "p"),
        Event("f1", at(0, 13, 5), "retweet", "c3"),  # a non-followee
        Event("f1", at(1, 10), "post"),
        Event("f1", at(1, 12, 30), "reply", "p"),
        Event("f1", at(2, 21), "retweet", "c2"),
        Event("f2", at(0, 14), "retweet", "p"),
        Event("f2", at(2, 7), "post"),
        Event("c1", at(1, 12, 5), "retweet", "p"),
    ]
    events += posts("f3", [at(0, 22), at(1, 23, 30), at(2, 6)])
    return events


HAND_EDGES = [
    ("f1", "p"), ("f1", "c1"), ("f1", "c2"), ("f1", "ghost"),
    ("f2", "p"),
    ("f3", "p"), ("f3", "c1"),
    ("f4", "p"), ("f4", "c1"),
    ("c1", "p"), ("c1", "c2"),
]


def int64_end_events():
    """Timestamps at both int64 ends; `g` starts its second session (at MAX)
    in an earlier slot than its first."""
    events = posts("a", [MIN, MIN + 5, 0, MAX, MAX]) + posts("b", [MIN, MAX])
    events += posts("p", [MIN, MAX])
    events += [
        Event("f", MIN, "retweet", "a"),
        Event("f", MAX, "reply", "b"),
        Event("f", MAX, "retweet", "p"),
        Event("f", 0, "post"),
        Event("g", MIN + 10 * 3600, "post"),
        Event("g", MAX, "retweet", "p"),
    ]
    return events


INT64_EDGES = [("f", "a"), ("f", "b"), ("f", "p"), ("g", "p"), ("g", "a")]

CASES = {
    "hand": (hand_events(), HAND_EDGES),
    # `p` is only a reaction target: every follower gets delta_default.
    "producer-silent": ([ev for ev in hand_events() if ev.user != "p"], HAND_EDGES),
    # Nobody reacts to `p`: all tie strengths are 0, so delta_default again.
    "no-producer-reactions": (
        [ev for ev in hand_events() if ev.target_author != "p"], HAND_EDGES
    ),
    # No follower has a depth sample: everyone gets rho_default.
    "posts-only": ([ev for ev in hand_events() if not ev.is_reaction], HAND_EDGES),
    "int64-ends": (int64_end_events(), INT64_EDGES),
}

# 8 h keeps a day's events in one session, 0.5 h and 0.004 h split them; the
# last gap is 2**64 seconds, where a gap stored as int64 or float goes wrong.
GAPS = (8.0, 0.5, 0.004, 2**64 / 3600)


def per_follower_instance(producer, graph, trace, slots, gap_hours, gamma_mode):
    """The instance from the reference per-follower estimators on a reference
    trace, one follower at a time, with the fallbacks `build_instance`
    documents."""
    followers = graph.followers_of(producer)
    mu = {}
    for f in followers:
        try:
            mu[f] = ref.consumption_depth_mu(f, graph, trace, gap_hours)
        except EstimationError:
            pass
    median = statistics.median(mu.values()) if mu else None
    if len(trace.timestamps(producer)):
        deltas = ref.estimate_deltas(followers, producer, trace, 0.5)
    else:
        deltas = dict.fromkeys(followers, 0.5)
    profiles = []
    for f in followers:
        events = trace.events_by_user(f)
        reactions = sum(ev.is_reaction for ev in events)
        depth = mu.get(f, median)
        profiles.append(FollowerProfile(
            id=f,
            sigma=ref.estimate_login_slot(events, slots, gap_hours, trace.tz_offset_minutes)
            if events else 0,
            rho=estimate_rho(depth) if depth is not None else 0.5,
            delta=deltas[f],
            gamma=1.0 if gamma_mode == "one" else (reactions / len(events) if events else 0.0),
            competitor_load=ref.aggregate_competitors(f, producer, graph, trace, slots),
        ))
    return profiles


@pytest.mark.parametrize("tz", [0, 330, -300])
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_pass_matches_the_per_follower_estimators(case, tz):
    """Follower by follower and field by field, with `==`, against the
    reference per-follower estimators and against the reference
    `build_instance`."""
    events, edges = CASES[case]
    graph = FollowGraph(edges)
    trace, old_trace = ActivityTrace(events, tz), ref.ActivityTrace(events, tz)
    producer = "p"
    for slots in (24, 8):
        for gap_hours in GAPS:
            for gamma_mode in ("one", "reaction-rate"):
                kwargs = dict(gap_hours=gap_hours, gamma_mode=gamma_mode)
                got = build_instance(producer, graph, trace, slots, 6, **kwargs)
                expected = per_follower_instance(producer, graph, old_trace, slots, **kwargs)
                assert len(got.followers) == len(expected)
                for g, e in zip(got.followers, expected):
                    assert (g.id, g.sigma, g.rho, g.delta, g.gamma) == (
                        e.id, e.sigma, e.rho, e.delta, e.gamma
                    ), (slots, gap_hours, gamma_mode)
                    assert g.competitor_load == e.competitor_load
                assert got == ref.build_instance(producer, graph, old_trace, slots, 6, **kwargs)


def outcome(call, *args, **kwargs):
    """A call's result with its type (arrays with their dtype and shape), or
    the type and message of what it raised."""
    try:
        result = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tolist()
    return type(result), result


TRACE = object()  # stands for each side's trace in `agree` below


@pytest.mark.parametrize("tz", [0, 330, -300])
@pytest.mark.parametrize("case", sorted(CASES) + ["empty"])
def test_public_estimators_match_the_reference(case, tz):
    """Every public per-follower estimator, a one-follower call of
    `build_instance`'s pass or of its rule helpers, equals its reference copy
    with `==` for each user of the graph. Where the reference raises (no depth
    samples, a producer without posts, an empty trace), it raises the same
    exception type with the same message."""
    events, edges = ([], HAND_EDGES) if case == "empty" else CASES[case]
    graph = FollowGraph(edges)
    new, old = ActivityTrace(events, tz), ref.ActivityTrace(events, tz)

    def agree(name, *args, **kwargs):
        got = outcome(getattr(estimate, name), *[new if a is TRACE else a for a in args], **kwargs)
        expected = outcome(getattr(ref, name), *[old if a is TRACE else a for a in args], **kwargs)
        assert got == expected, (name, args, kwargs)
        return got

    users = graph.users()
    deltas = agree("estimate_deltas", graph.followers_of("p"), "p", TRACE)
    for slots in (24, 8):
        agree("activity_histogram", users + ("nobody",), TRACE, slots)
        agree("activity_histogram", users, TRACE, slots, mean_center=True)
    for user in users:
        strength = agree("tie_strength", user, "p", TRACE)
        loads = [agree("aggregate_competitors", user, "p", graph, TRACE, s) for s in (24, 8)]
        for gap_hours in GAPS:
            depth = agree("consumption_depth_mu", user, graph, TRACE, gap_hours)
            agree("consumption_depth_mu", user, graph, TRACE, gap_hours, fallback=3.5)
            for slots in (24, 8):
                expected = outcome(
                    ref.estimate_login_slot, old.events_by_user(user), slots, gap_hours, tz
                )
                for own in (new.events_by_user(user), new.timestamps(user)):
                    assert outcome(estimate_login_slot, own, slots, gap_hours, tz) == expected
        if case == "posts-only":
            assert depth[0] is EstimationError
        if case in ("producer-silent", "empty"):
            assert strength[0] is deltas[0] is ValueError
        if case == "empty":
            assert loads[0][0] is ValueError and expected[0] is ValueError


def test_hand_case_exercises_every_fallback():
    """The hand cases reach the branches they are named for."""
    graph = FollowGraph(HAND_EDGES)
    by_id = {
        name: {f.id: f for f in build_instance("p", graph, ActivityTrace(CASES[name][0]), 24, 6,
                                               rho_default=0.25, delta_default=0.75).followers}
        for name in CASES if name != "int64-ends"
    }
    hand = by_id["hand"]
    assert hand["f4"].sigma == 0  # no events
    assert hand["f3"].rho == hand["f4"].rho != 0.25  # the population-median depth
    assert hand["f1"].delta == 1.0 and hand["f3"].delta == 0.0
    assert all(f.delta == 0.75 for f in by_id["producer-silent"].values())
    assert all(f.delta == 0.75 for f in by_id["no-producer-reactions"].values())
    assert all(f.rho == 0.25 for f in by_id["posts-only"].values())
    assert hand["f2"].competitor_load == (0.0,) * 24  # follows only the producer


def test_blocks_do_not_change_the_estimates(monkeypatch):
    """Blocks of a single work unit (each follower alone) and of a few units
    give the bits of the default block size."""
    raw, edges = generators.trace_and_graph(0, followers=30, competitors=8, followees=4, days=4)
    trace = ActivityTrace([Event(**ev) for ev in raw])
    graph = FollowGraph(edges)
    expected = build_instance(generators.PRODUCER, graph, trace, 24, 6, gap_hours=0.5)
    for block in (1, 50, 700):
        monkeypatch.setattr(estimate, "_BLOCK", block)
        got = build_instance(generators.PRODUCER, graph, trace, 24, 6, gap_hours=0.5)
        assert got == expected


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "events", [[], posts("x", [at(0, 1)])], ids=["empty", "no-follower-events"]
)
def test_bad_gap_rejected_whatever_the_data(gap, events):
    graph = FollowGraph([("f", "p")])
    with pytest.raises(ValueError, match="gap_hours"):
        build_instance("p", graph, ActivityTrace(events), 24, 5, gap_hours=gap)


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty"):
        build_instance("p", FollowGraph([("f", "p")]), ActivityTrace([]), 24, 5)


PER_FOLLOWER = (
    "consumption_depth_mu", "estimate_login_slot", "tie_strength",
    "estimate_deltas", "aggregate_competitors",
)


def test_build_instance_calls_no_per_follower_estimator(monkeypatch):
    raw, edges = generators.trace_and_graph(1, followers=20, competitors=6, followees=3, days=4)
    trace = ActivityTrace([Event(**ev) for ev in raw])
    graph = FollowGraph(edges)
    expected = build_instance(generators.PRODUCER, graph, trace, 24, 6, gamma_mode="reaction-rate")

    def refuse(*args, **kwargs):
        raise AssertionError("a per-follower estimator was called")

    for name in PER_FOLLOWER:
        monkeypatch.setattr(estimate, name, refuse)
    got = build_instance(generators.PRODUCER, graph, trace, 24, 6, gamma_mode="reaction-rate")
    assert got == expected


def test_peak_memory_at_pipeline_size():
    """The traced peak of `build_instance` on a fresh trace of the benchmark's
    `pipeline` size (seed 0: 250 followers, 26k events) stays under 1.5 MB:
    the rank key and one block's arrays, not (reactions x followees) pairs.
    A call on a small trace first keeps one-time allocations out."""
    small, small_edges = generators.trace_and_graph(
        0, followers=5, competitors=3, followees=2, days=2
    )
    build_instance(generators.PRODUCER, FollowGraph(small_edges),
                   ActivityTrace([Event(**ev) for ev in small]), 24, 24)
    raw, edges = generators.trace_and_graph(
        0, followers=250, competitors=120, followees=12, days=30
    )
    graph = FollowGraph(edges)
    trace = ActivityTrace.from_columns(
        [ev["user"] for ev in raw], [ev["ts"] for ev in raw],
        [ev["kind"] for ev in raw], [ev.get("target_author") for ev in raw],
    )
    tracemalloc.start()
    try:
        instance = build_instance(generators.PRODUCER, graph, trace, 24, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(instance.followers) == 250
    assert peak <= 1.5 * 2**20


class TestTraceColumns:
    """The columns a trace derives once and keeps: `rows`, `_rank`, `_key`
    and `_attached_row`."""

    # Names in code order: a, b, c, x (a reaction target only), z (the last, with events).
    TRACE = ActivityTrace(
        posts("b", [5, 1]) + posts("z", [9, 9]) + posts("a", [3])
        + [Event("c", 2, "post"), Event("c", 4, "reply", "x")]
    )

    @pytest.mark.parametrize(
        "users",
        [[], ["a"], ["nobody"], ["x", "nobody", "b"], ["c", "a", "c"], ["z", "c", "b", "a"]],
        ids=["empty", "one", "absent", "absent-mixed", "repeated", "unsorted"],
    )
    def test_rows_follow_the_user_slices(self, users):
        rows, counts = self.TRACE.rows(users)
        spans = [self.TRACE.user_slice(u) for u in users]
        assert rows.tolist() == [row for s in spans for row in range(s.start, s.stop)]
        assert counts.tolist() == [s.stop - s.start for s in spans]
        assert rows.dtype == counts.dtype == np.int64

    def test_rank_is_the_dense_rank_of_the_timestamps(self):
        low, high = -(2**63), 2**63 - 1
        stamps = [high, 0, low, 0, high, -1, low, 7]
        trace = ActivityTrace([Event(u, t, "post") for u, t in zip("abcabcab", stamps)])
        distinct = sorted(set(stamps))
        ranks = [distinct.index(t) for t in trace.ts.tolist()]
        assert trace._rank.tolist() == ranks
        stride = len(trace) + 1
        assert trace._key.tolist() == [r + c * stride for r, c in zip(ranks, trace.user_code)]
        assert (np.diff(trace._key) >= 0).all()

    def test_columns_are_read_only(self):
        for column in (self.TRACE._rank, self.TRACE._key, self.TRACE._attached_row):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1


def test_a_trace_is_ranked_once(monkeypatch):
    """`build_instance`, every user's timeline and per-follower estimator
    calls on one trace rank its timestamps once between them."""
    raw, edges = generators.trace_and_graph(2, followers=12, competitors=5, followees=3, days=3)
    trace = ActivityTrace([Event(**ev) for ev in raw])
    graph = FollowGraph(edges)
    rank = ActivityTrace.__dict__["_rank"]
    compute, ranked = rank.func, []

    def counted(self):
        ranked.append(self is trace)
        return compute(self)

    monkeypatch.setattr(rank, "func", counted)
    build_instance(generators.PRODUCER, graph, trace, 24, 6)
    for user in graph.users():
        reconstruct_timeline(user, graph, trace)
    for follower in graph.followers_of(generators.PRODUCER)[:3]:
        consumption_depth_mu(follower, graph, trace, fallback=1.0)
        aggregate_competitors(follower, generators.PRODUCER, graph, trace, 24)
    assert ranked.count(True) == 1
