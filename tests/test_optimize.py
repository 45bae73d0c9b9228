"""Greedy allocation, exhaustive search, heuristics and multistart."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from feedsched import (
    FAMILIES,
    EnumerationCapError,
    FollowerProfile,
    ProblemInstance,
    Schedule,
    attention_total,
    brute_force,
    heuristic,
    marginal_allocation,
    multistart,
)
from feedsched import optimize
from feedsched.formats import instance_from_dict
from feedsched.objective import TimelineLayout
from feedsched.optimize import HEURISTICS, window_slots
from perfbench import generators

from conftest import family_instance, random_feasible_schedule, random_instance


def one_follower(slots, budget, sigma, rho, delta, load):
    follower = FollowerProfile(
        id="u0", sigma=sigma, rho=rho, delta=delta, gamma=1.0, competitor_load=load
    )
    return ProblemInstance(slots=slots, budget=budget, followers=(follower,))


@pytest.fixture
def greedy_two_slot():
    return one_follower(2, 2, 0, 0.5, 1.0, (0.0, 1.0))


@pytest.fixture
def monotony_two_slot():
    return one_follower(2, 2, 0, 0.5, 0.5, (0.0, 1.0))


class TestMarginalAllocation:
    def test_zero_budget(self):
        instance = one_follower(3, 0, 0, 0.5, 0.5, (0.0,) * 3)
        report = marginal_allocation(instance)
        assert report.schedule.posts == (0, 0, 0)
        assert report.terminated_by == "budget"
        assert report.trajectory == ()

    def test_stacks_posts_when_no_monotony_aversion(self, greedy_two_slot):
        report = marginal_allocation(greedy_two_slot)
        assert report.schedule.posts == (2, 0)
        assert report.total == pytest.approx(0.75)
        assert report.trajectory == ((0, pytest.approx(0.5)), (0, pytest.approx(0.25)))
        assert report.terminated_by == "budget"

    def test_monotony_aversion_steers_to_second_slot(self, monotony_two_slot):
        report = marginal_allocation(monotony_two_slot)
        assert report.schedule.posts == (1, 1)
        assert report.total == pytest.approx(0.625)
        assert report.trajectory == ((0, pytest.approx(0.5)), (1, pytest.approx(0.125)))

    def test_infeasible_initial_rejected(self, greedy_two_slot):
        with pytest.raises(ValueError, match="budget"):
            marginal_allocation(greedy_two_slot, Schedule((2, 1)))

    def test_initial_length_mismatch_rejected(self, greedy_two_slot):
        with pytest.raises(ValueError, match="slots"):
            marginal_allocation(greedy_two_slot, Schedule((0,)))

    def test_stops_on_no_gain(self):
        # rho=1 means nothing is ever read, so no slot can improve on zero.
        instance = one_follower(2, 5, 0, 1.0, 1.0, (0.0, 0.0))
        report = marginal_allocation(instance)
        assert report.schedule.posts == (0, 0)
        assert report.terminated_by == "no-gain"

    def test_trajectory_gains_positive_and_total_improves(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            instance = random_instance(rng)
            initial = random_feasible_schedule(rng, instance)
            report = marginal_allocation(instance, initial)
            assert all(gain > 0 for _, gain in report.trajectory)
            assert report.terminated_by in ("no-gain", "budget")
            assert report.total >= attention_total(initial, instance) - 1e-12
            assert report.schedule.spend <= instance.budget


class TestBruteForce:
    def test_zero_budget(self):
        instance = one_follower(3, 0, 0, 0.5, 0.5, (0.0,) * 3)
        report = brute_force(instance)
        assert report.schedule.posts == (0, 0, 0)
        assert report.total == 0.0
        assert report.terminated_by == "exhausted"

    def test_single_post_placement(self):
        instance = one_follower(2, 1, 0, 0.5, 1.0, (0.0, 1.0))
        report = brute_force(instance)
        assert report.schedule.posts == (1, 0)
        assert report.total == pytest.approx(0.5)
        assert report.evaluations == 3

    def test_matches_marginal_on_monotony_instance(self, monotony_two_slot):
        report = brute_force(monotony_two_slot)
        assert report.schedule.posts == (1, 1)
        assert report.total == pytest.approx(0.625)
        assert report.evaluations == 6

    def test_cap_exceeded_names_bound(self):
        instance = one_follower(3, 5, 0, 0.5, 0.5, (0.0,) * 3)
        with pytest.raises(EnumerationCapError, match="cap of 10"):
            brute_force(instance, cap=10)

    def test_greedy_never_beats_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            instance = random_instance(rng, max_slots=4, max_budget=4)
            greedy = marginal_allocation(instance)
            exact = brute_force(instance)
            assert exact.total >= greedy.total - 1e-9

    def test_depth_only_regime_totals_coincide(self):
        # One follower, no competitors, delta=1: attention depends only on the
        # number of posts, so greedy and exhaustive totals agree exactly.
        rng = np.random.default_rng(43)
        for _ in range(20):
            instance = random_instance(rng, one_follower_no_competitors_delta_one=True)
            greedy = marginal_allocation(instance)
            exact = brute_force(instance)
            assert greedy.total == pytest.approx(exact.total, abs=1e-12)
            follower = instance.followers[0]
            q = 1.0 - follower.rho
            spend = exact.schedule.spend
            expected = follower.gamma * sum(q**d for d in range(1, spend + 1))
            assert exact.total == pytest.approx(expected, rel=1e-12)


class TestHeuristics:
    def make_instance(self, slots=24, budget=48):
        follower = FollowerProfile(
            id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,) * slots
        )
        return ProblemInstance(slots=slots, budget=budget, followers=(follower,))

    def test_uniform_one_per_slot(self):
        schedule = heuristic("uniform", self.make_instance(), 24)
        assert schedule.posts == (1,) * 24

    def test_uniform_remainder_to_lowest_slots(self):
        schedule = heuristic("uniform", self.make_instance(slots=4, budget=8), 6)
        assert schedule.posts == (2, 2, 1, 1)

    def test_graveyard_fills_night_window(self):
        schedule = heuristic("graveyard", self.make_instance(), 8)
        expected = {23, 0, 1, 2, 3, 4, 5, 6}
        assert {s for s, n in enumerate(schedule.posts) if n} == expected
        assert set(schedule.posts) <= {0, 1}
        assert schedule.spend == 8

    def test_smart_uses_lunch_and_night(self):
        schedule = heuristic("smart", self.make_instance(), 10)
        assert {s for s, n in enumerate(schedule.posts) if n} == {12, 13, 23, 0, 1, 2, 3, 4, 5, 6}
        assert schedule.spend == 10

    def test_peak_proportional_allocation(self):
        instance = self.make_instance(slots=4, budget=10)
        schedule = heuristic("peak", instance, 6, activity=[1.0, 2.0, 1.0, 0.0])
        assert schedule.posts == (2, 3, 1, 0)
        assert schedule.spend == 6

    def test_peak_largest_remainder_rounding(self):
        instance = self.make_instance(slots=3, budget=10)
        schedule = heuristic("peak", instance, 4, activity=[5.0, 3.0, 2.0])
        assert schedule.posts == (2, 1, 1)

    def test_peak_zero_spend(self):
        instance = self.make_instance(slots=4, budget=10)
        schedule = heuristic("peak", instance, 0, activity=[1.0, 1.0, 1.0, 1.0])
        assert schedule.posts == (0, 0, 0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_peak_rejects_non_finite_weights(self, bad):
        instance = self.make_instance(slots=4, budget=10)
        with pytest.raises(ValueError, match="activity weights must be finite"):
            heuristic("peak", instance, 4, activity=[1.0, bad, 1.0, 1.0])

    @pytest.mark.parametrize(
        "weights, n", [([1e308] * 4, 4), ([1.7e308, 0.0, 0.0, 0.0], 6), ([1e308] * 4, 0)]
    )
    def test_peak_rejects_weights_whose_sum_overflows(self, weights, n):
        instance = self.make_instance(slots=4, budget=10)
        with pytest.raises(ValueError, match="activity weights are too large"):
            heuristic("peak", instance, n, activity=weights)

    def test_peak_large_weights_apportion_as_their_ratios(self):
        instance = self.make_instance(slots=4, budget=10)
        scaled = heuristic("peak", instance, 6, activity=[1e306, 2e306, 1e306, 0.0])
        assert scaled == heuristic("peak", instance, 6, activity=[1.0, 2.0, 1.0, 0.0])
        assert scaled.posts == (2, 3, 1, 0)

    def test_peak_requires_activity(self):
        with pytest.raises(ValueError, match="activity"):
            heuristic("peak", self.make_instance(), 5)

    def test_spend_beyond_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            heuristic("uniform", self.make_instance(budget=3), 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="heuristic"):
            heuristic("chaotic", self.make_instance(), 1)

    def test_window_slots_wraps(self):
        assert window_slots(23, 6, 24) == [23, 0, 1, 2, 3, 4, 5, 6]
        assert window_slots(12, 13, 24) == [12, 13]
        assert window_slots(23, 6, 12) == [11, 0, 1, 2, 3]

    def test_window_slots_cover_sub_hour_slots(self):
        assert window_slots(23, 6, 48) == [46, 47] + list(range(14))
        assert window_slots(12, 13, 96) == list(range(48, 56))
        # A 16-slot day has 90-minute slots: hours 1 and 2 both overlap slot 1.
        assert window_slots(1, 1, 16) == [0, 1]
        assert window_slots(2, 2, 16) == [1]
        assert window_slots(23, 1, 16) == [15, 0, 1]

    def test_graveyard_fills_every_half_hour_of_the_night(self):
        schedule = heuristic("graveyard", self.make_instance(slots=48, budget=48), 16)
        assert schedule.posts == tuple(1 if s < 14 or s >= 46 else 0 for s in range(48))


def _reference_window_slots(first_hour: int, last_hour: int, slots: int) -> list[int]:
    """Slot indices covered by an inclusive, wrapping hour window."""
    hours = []
    h = first_hour % 24
    while True:
        hours.append(h)
        if h == last_hour % 24:
            break
        h = (h + 1) % 24
    out: list[int] = []
    for h in hours:
        s = h * slots // 24
        if s not in out:
            out.append(s)
    return out


def _reference_spread(n: int, window: list[int], slots: int) -> Schedule:
    base, rem = divmod(n, len(window))
    posts = [0] * slots
    for k, s in enumerate(window):
        posts[s] = base + (1 if k < rem else 0)
    return Schedule(tuple(posts))


def _reference_heuristic(
    kind: str,
    instance: ProblemInstance,
    n: int,
    activity=None,
    *,
    night_hours: tuple[int, int] = (23, 6),
    lunch_hours: tuple[int, int] = (12, 13),
) -> Schedule:
    """The heuristics as first written: divmod spreads for uniform, graveyard
    and smart, largest remainder for peak. Exact for slot counts dividing 24."""
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}; expected one of {HEURISTICS}")
    slots = instance.slots
    if not 0 <= n <= instance.budget:
        raise ValueError(f"spend {n} must lie in [0, budget={instance.budget}]")
    if kind == "uniform":
        base, rem = divmod(n, slots)
        return Schedule(tuple(base + (1 if s < rem else 0) for s in range(slots)))
    if kind == "peak":
        if activity is None:
            raise ValueError("the peak heuristic requires per-slot activity weights")
        weights = [float(a) for a in activity]
        if len(weights) != slots:
            raise ValueError(
                f"activity weights have length {len(weights)}, expected {slots}"
            )
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("activity weights must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("activity weights must be >= 0")
        total_w = sum(weights)
        if n > 0 and total_w <= 0:
            raise ValueError("activity weights must not all be zero")
        posts = [0] * slots
        if n > 0:
            quotas = [n * w / total_w for w in weights]
            posts = [int(q) for q in quotas]
            leftovers = sorted(
                range(slots), key=lambda s: (-(quotas[s] - posts[s]), s)
            )
            for s in leftovers[: n - sum(posts)]:
                posts[s] += 1
        return Schedule(tuple(posts))
    night = _reference_window_slots(*night_hours, slots)
    if kind == "graveyard":
        return _reference_spread(n, night, slots)
    lunch = _reference_window_slots(*lunch_hours, slots)
    combined = lunch + [s for s in night if s not in lunch]
    return _reference_spread(n, combined, slots)


class TestHeuristicsMatchReference:
    """Every heuristic equals the reference for each spend up to the budget,
    at every slot count that divides 24, for night windows of 1 to 24 hours
    starting and ending at every hour (random lunch windows), and for activity
    weights with zeros and ties."""

    BUDGET = 30

    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 6, 8, 12, 24])
    def test_uniform_and_peak(self, slots):
        rng = np.random.default_rng(slots)
        instance = TestHeuristics().make_instance(slots=slots, budget=self.BUDGET)
        activities = [[1.0] * slots, [0.0] * (slots - 1) + [2.0]]
        activities += [rng.choice([0.0, 0.0, 1.0, 1.0, 3.0, 0.1], slots) for _ in range(6)]
        activities += [rng.integers(0, 2, slots) * rng.random(slots) for _ in range(2)]
        for n in range(self.BUDGET + 1):
            assert heuristic("uniform", instance, n) == _reference_heuristic(
                "uniform", instance, n
            )
            for activity in activities:
                if n > 0 and sum(activity) == 0:
                    continue  # rejected: no weight to apportion by
                expected = _reference_heuristic("peak", instance, n, activity)
                assert heuristic("peak", instance, n, activity) == expected, (n, activity)

    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 6, 8, 12, 24])
    def test_windows(self, slots):
        rng = np.random.default_rng(100 + slots)
        instance = TestHeuristics().make_instance(slots=slots, budget=self.BUDGET)
        for first in range(24):
            for length in (1, 2, 8, 13, 24):
                night = (first, (first + length - 1) % 24)
                lunch = tuple(int(h) for h in rng.integers(0, 24, 2))
                for n in range(self.BUDGET + 1):
                    for kind in ("graveyard", "smart"):
                        kwargs = {"night_hours": night, "lunch_hours": lunch}
                        expected = _reference_heuristic(kind, instance, n, **kwargs)
                        assert heuristic(kind, instance, n, **kwargs) == expected, (
                            kind, n, kwargs,
                        )


class TestMultistart:
    def test_single_restart_equals_zero_start(self, monotony_two_slot):
        single = multistart(monotony_two_slot, restarts=1, seed=5)
        direct = marginal_allocation(monotony_two_slot)
        assert single.schedule == direct.schedule
        assert single.total == direct.total
        assert single.evaluations == direct.evaluations

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(44)
        instance = random_instance(rng)
        first = multistart(instance, restarts=5, seed=123)
        second = multistart(instance, restarts=5, seed=123)
        assert first == second

    def test_never_worse_than_single_start(self):
        rng = np.random.default_rng(45)
        for _ in range(15):
            instance = random_instance(rng)
            single = marginal_allocation(instance)
            multi = multistart(instance, restarts=4, seed=9)
            assert multi.total >= single.total - 1e-12

    def test_restart_count_validated(self, monotony_two_slot):
        with pytest.raises(ValueError, match="restarts"):
            multistart(monotony_two_slot, restarts=0, seed=1)


class TestGammaScalingArgmax:
    def test_slot_choice_sequence_invariant_under_dyadic_scaling(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            instance = random_instance(rng)
            c = 2.0 ** int(rng.integers(-3, 8))
            scaled = ProblemInstance(
                slots=instance.slots,
                budget=instance.budget,
                followers=tuple(
                    FollowerProfile(
                        id=f.id, sigma=f.sigma, rho=f.rho, delta=f.delta,
                        gamma=c * f.gamma, competitor_load=f.competitor_load,
                    )
                    for f in instance.followers
                ),
            )
            base = marginal_allocation(instance)
            scaled_report = marginal_allocation(scaled)
            assert [s for s, _ in base.trajectory] == [s for s, _ in scaled_report.trajectory]
            assert base.schedule == scaled_report.schedule


class TestIncrementalGains:
    @pytest.mark.parametrize("follower_family", FAMILIES)
    @pytest.mark.parametrize("cluster_family", FAMILIES)
    def test_slot_gains_match_full_re_evaluation(self, follower_family, cluster_family):
        rng = np.random.default_rng(
            10 * FAMILIES.index(follower_family) + FAMILIES.index(cluster_family)
        )
        for trial in range(8):
            instance = family_instance(rng, follower_family, cluster_family, bool(trial % 2))
            layout = TimelineLayout(instance)
            starts = [Schedule.zeros(instance.slots)]
            starts += [random_feasible_schedule(rng, instance) for _ in range(2)]
            for current in starts:
                base = attention_total(current, instance)
                gains = layout.slot_gains(current.posts)
                for k in range(instance.slots):
                    added = attention_total(current.with_added(k), instance)
                    tol = 1e-9 * max(abs(base), abs(added)) + 1e-300
                    assert abs(gains[k] - (added - base)) <= tol, (k, gains[k], added - base)

    def test_greedy_report_counts_and_total(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            instance = random_instance(rng)
            initial = random_feasible_schedule(rng, instance)
            report = marginal_allocation(instance, initial)
            scans = len(report.trajectory) + (report.terminated_by == "no-gain")
            assert report.evaluations == 1 + instance.slots * scans
            assert report.total == attention_total(report.schedule, instance)
            for slot, _ in report.trajectory:
                initial = initial.with_added(slot)
            assert initial == report.schedule


@functools.cache
def lexicographic_schedules(slots, budget):
    return [
        posts
        for posts in itertools.product(range(budget + 1), repeat=slots)
        if sum(posts) <= budget
    ]


@pytest.fixture
def small_chunks(monkeypatch):
    """Make brute_force score a few schedules per chunk; record the chunks."""
    chunks = []
    enumerate_chunks = optimize._lex_chunks

    def recording(slots, budget, rows):
        for chunk in enumerate_chunks(slots, budget, rows):
            assert 1 <= len(chunk) <= rows
            chunks.append(chunk.copy())
            yield chunk

    monkeypatch.setattr(optimize, "CHUNK_ELEMENTS", 8)
    monkeypatch.setattr(optimize, "_lex_chunks", recording)
    return chunks


class TestChunkedBruteForce:
    def test_all_tie_keeps_lexicographically_smallest_across_chunks(self, small_chunks):
        # rho=0 reads everything and delta=1 never skips: every schedule that
        # spends the whole budget ties.
        instance = one_follower(3, 4, 1, 0.0, 1.0, (0.0, 2.0, 1.0))
        report = brute_force(instance)
        assert report.schedule.posts == (0, 0, 4)
        assert report.total == 4.0
        assert report.evaluations == 35
        enumerated = [tuple(row) for chunk in small_chunks for row in chunk.tolist()]
        assert enumerated == lexicographic_schedules(3, 4)
        winner = enumerated.index((0, 0, 4))
        assert len(small_chunks[0]) <= winner < len(enumerated) - 1
        assert len(small_chunks) > 2

    @pytest.mark.parametrize("rows", [1, 2, 5, 7, 64, 10_000])
    @pytest.mark.parametrize(
        "slots,budget", [(1, 0), (1, 6), (3, 0), (4, 3), (5, 4), (6, 10), (2, 9), (7, 3)]
    )
    def test_chunks_enumerate_in_lexicographic_order(self, slots, budget, rows):
        chunks = list(optimize._lex_chunks(slots, budget, rows))
        assert all(1 <= len(c) <= rows for c in chunks)
        enumerated = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert enumerated == lexicographic_schedules(slots, budget)

    @pytest.mark.parametrize("follower_family", FAMILIES)
    def test_matches_one_at_a_time_enumeration(self, small_chunks, follower_family):
        rng = np.random.default_rng(FAMILIES.index(follower_family))
        for trial in range(6):
            cluster_family = FAMILIES[trial % len(FAMILIES)]
            instance = family_instance(rng, follower_family, cluster_family, trial % 2 == 0)
            report = brute_force(instance)
            totals = [
                attention_total(Schedule(posts), instance)
                for posts in lexicographic_schedules(instance.slots, instance.budget)
            ]
            assert report.evaluations == len(totals)
            assert report.total == attention_total(report.schedule, instance)
            assert report.total == pytest.approx(max(totals), rel=1e-9)

    def test_cap_checked_before_anything_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before the cap check")

        monkeypatch.setattr(optimize, "TimelineLayout", refuse)
        monkeypatch.setattr(optimize, "_lex_chunks", refuse)
        instance = one_follower(6, 10, 0, 0.5, 0.5, (0.0,) * 6)
        with pytest.raises(EnumerationCapError, match="8008 schedules"):
            brute_force(instance, cap=8007)

    def test_enumeration_near_the_default_cap_is_streamed(self):
        # 18M candidates pass the default cap; drawing the first chunk builds
        # only that chunk, not the candidate set.
        assert math.comb(26 + 8, 8) <= optimize.DEFAULT_ENUMERATION_CAP
        first = next(optimize._lex_chunks(8, 26, 1000))
        assert first.shape[1] == 8 and 1 <= len(first) <= 1000
        assert first[0].tolist() == [0] * 8


def table_total(order, table, posts):
    """A schedule's total read off `attention_table` one cluster at a time."""
    total = 0.0
    for g, timeline in enumerate(order.tolist()):
        above = 0
        for i, slot in enumerate(timeline):
            total += table[g, i, above, posts[slot]]
            above += posts[slot]
    return total


def grouped_instance(rng, follower_family, cluster_family, shifted, budget):
    """Six followers on at least two login slots with fractional loads. The
    second follower reads nothing (rho = 1) and never skips (delta = 1), the
    third reads everything and the fourth always skips where the geometric
    family allows 0, and the last has weight 0."""

    def draw(family, edge):
        if edge is not None and family == "geometric":
            return edge
        return float(rng.uniform(0.05, 1.0))

    slots = int(rng.integers(2, 5))
    sigma = [0, 1] + rng.integers(0, slots, size=4).tolist()
    followers = tuple(
        FollowerProfile(
            id=f"u{j}",
            sigma=sigma[j],
            rho=1.0 if j == 1 else draw(follower_family, 0.0 if j == 2 else None),
            delta=1.0 if j == 1 else draw(cluster_family, 0.0 if j == 3 else None),
            gamma=0.0 if j == 5 else float(rng.uniform(0.1, 2.0)),
            competitor_load=tuple(rng.uniform(0.0, 3.0, size=slots).tolist()),
        )
        for j in range(6)
    )
    return ProblemInstance(
        slots=slots,
        budget=budget,
        followers=followers,
        follower_survival_family=follower_family,
        cluster_survival_family=cluster_family,
        follower_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_shifted=shifted,
    )


class TestAttentionTable:
    @pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
    @pytest.mark.parametrize("cluster_family", FAMILIES)
    @pytest.mark.parametrize("follower_family", FAMILIES)
    def test_table_totals_match_the_layout(self, follower_family, cluster_family, shifted):
        rng = np.random.default_rng(
            [FAMILIES.index(follower_family), FAMILIES.index(cluster_family), shifted]
        )
        for budget in (0, 3, 4):
            instance = grouped_instance(rng, follower_family, cluster_family, shifted, budget)
            layout = TimelineLayout.of(instance)
            order, table = layout.attention_table(budget, optimize.CHUNK_ELEMENTS)
            assert order.tolist() == [
                [(g - i) % instance.slots for i in range(instance.slots)]
                for g in sorted(set(instance.followers.sigma.tolist()))
            ]
            # one follower per block adds them in the same order, to the same bits
            assert np.array_equal(layout.attention_table(budget, 1)[1], table)
            candidates = lexicographic_schedules(instance.slots, budget)
            totals = layout.totals(np.array(candidates))
            from_table = [table_total(order, table, posts) for posts in candidates]
            np.testing.assert_allclose(from_table, totals, rtol=1e-12, atol=1e-300)
            best = int(np.argmax(totals))
            runner_up = max(np.delete(totals, best), default=-math.inf)
            if totals[best] - runner_up > 1e-9 * abs(totals[best]):
                assert brute_force(instance).schedule.posts == candidates[best]

    def test_full_spend_ties_across_login_groups_keep_the_smallest(self, small_chunks):
        # rho = 0 reads everything and delta = 1 never skips, so every schedule
        # that spends the budget earns budget * sum(gamma) on every group.
        followers = tuple(
            FollowerProfile(id=f"u{j}", sigma=sigma, rho=0.0, delta=1.0, gamma=gamma,
                            competitor_load=load)
            for j, (sigma, gamma, load) in enumerate([
                (0, 1.0, (2.0, 0.0, 1.0, 3.0)),
                (1, 2.0, (0.0, 1.0, 1.0, 0.0)),
                (3, 0.5, (1.0, 4.0, 0.0, 2.0)),
                (3, 1.0, (0.0, 0.0, 2.0, 1.0)),
            ])
        )
        instance = ProblemInstance(slots=4, budget=3, followers=followers)
        order, table = TimelineLayout.of(instance).attention_table(3, optimize.CHUNK_ELEMENTS)
        assert len(order) == 3
        schedules = lexicographic_schedules(4, 3)
        full = [posts for posts in schedules if sum(posts) == 3]
        assert {table_total(order, table, posts) for posts in full} == {13.5}
        report = brute_force(instance)
        assert report.schedule.posts == (0, 0, 0, 3)
        assert report.total == 13.5
        assert report.evaluations == len(schedules)
        enumerated = [tuple(row) for chunk in small_chunks for row in chunk.tolist()]
        assert enumerated == schedules
        winner = enumerated.index((0, 0, 0, 3))
        assert len(small_chunks[0]) <= winner < len(enumerated) - 1

    def test_table_is_built_in_follower_blocks(self):
        """Peak memory stays under 10 MB at 20,000 followers, S=3, B=6, where
        the table over all followers at once would take 23.5 MB."""
        instance = instance_from_dict(
            generators.instance_dict(0, followers=20_000, slots=3, budget=6)
        )
        tracemalloc.start()
        try:
            report = brute_force(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.evaluations == math.comb(9, 3)
        assert peak < 10 * 2**20


class TestSlotMajorScoring:
    @pytest.mark.parametrize("rows", [1, 2, 7, None], ids=["1", "2", "7", "default"])
    @pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
    @pytest.mark.parametrize("cluster_family", FAMILIES)
    @pytest.mark.parametrize("follower_family", FAMILIES)
    def test_chunk_totals_add_group_by_group_left_to_right(
        self, follower_family, cluster_family, shifted, rows
    ):
        rng = np.random.default_rng(
            [FAMILIES.index(follower_family), FAMILIES.index(cluster_family), shifted]
        )
        for budget in (0, 3, 4):
            instance = grouped_instance(rng, follower_family, cluster_family, shifted, budget)
            order, table = TimelineLayout.of(instance).attention_table(
                budget, optimize.CHUNK_ELEMENTS
            )
            size = rows or optimize.CHUNK_ELEMENTS // instance.slots
            enumerated = []
            for chunk in optimize._lex_chunks(instance.slots, budget, size):
                totals = optimize._chunk_totals(chunk, order, table)
                candidates = chunk.tolist()
                # the same additions in the same order: equal to the last bit
                assert totals.tolist() == [table_total(order, table, p) for p in candidates]
                enumerated += map(tuple, candidates)
            assert enumerated == lexicographic_schedules(instance.slots, budget)

    def test_no_followers_pick_the_zero_schedule(self):
        instance = ProblemInstance(slots=4, budget=3, followers=())
        report = brute_force(instance)
        assert report.schedule.posts == (0, 0, 0, 0)
        assert report.total == 0.0
        assert report.evaluations == math.comb(3 + 4, 4)


class TestStreamedEnumeration:
    @pytest.mark.parametrize("elements", [8, 40, 300, 1 << 16])
    @pytest.mark.parametrize("rows", [1, 3, 50])
    @pytest.mark.parametrize("slots,budget", [(5, 4), (6, 3), (7, 2), (4, 6), (3, 9)])
    def test_levels_join_in_lexicographic_order(self, monkeypatch, elements, rows, slots, budget):
        # a smaller CHUNK_ELEMENTS cuts the slots into more, shorter levels
        monkeypatch.setattr(optimize, "CHUNK_ELEMENTS", elements)
        chunks = list(optimize._lex_chunks(slots, budget, rows))
        # cut at exactly `rows`; slot-major, so one slot's posts lie side by side
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= rows
        assert all(c.strides[0] == c.itemsize for c in chunks)
        enumerated = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert enumerated == lexicographic_schedules(slots, budget)

    def test_first_chunk_near_the_default_cap_stays_small(self):
        """18M candidates at S = 8, B = 26: drawing the first chunk of
        `CHUNK_ELEMENTS // 8` schedules traces under 3 MB."""
        tracemalloc.start()
        try:
            first = next(optimize._lex_chunks(8, 26, optimize.CHUNK_ELEMENTS // 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (optimize.CHUNK_ELEMENTS // 8, 8)
        assert peak < 3 * 2**20

    def test_full_search_memory(self):
        """A whole search over 125,970 schedules (S = 8, B = 12, 200
        followers) traces under 3 MB."""
        instance = instance_from_dict(
            generators.instance_dict(0, followers=200, slots=8, budget=12)
        )
        tracemalloc.start()
        try:
            report = brute_force(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.evaluations == math.comb(12 + 8, 8)
        assert peak < 3 * 2**20


class TestGreedyTimingBelowOnePostPerSlot:
    """With fewer posts than slots greedy has to choose when to post. On the
    benchmark's day-shaped populations it then departs from `uniform` and
    leads every heuristic spending the same budget by at least 20%."""

    @pytest.mark.parametrize("budget", [6, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_greedy_leads_every_heuristic(self, seed, budget):
        instance = instance_from_dict(
            generators.instance_dict(seed, followers=1000, slots=24, budget=budget)
        )
        report = marginal_allocation(instance)
        assert report.schedule.spend == budget
        assert report.schedule != heuristic("uniform", instance, budget)
        logins = np.bincount(instance.followers.sigma, minlength=instance.slots).tolist()
        for kind in HEURISTICS:
            schedule = heuristic(kind, instance, budget, logins if kind == "peak" else None)
            assert report.total >= 1.2 * attention_total(schedule, instance), kind
