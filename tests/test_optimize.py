"""Greedy allocation, exhaustive search, heuristics and multistart."""

import itertools
import math

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
from feedsched.objective import TimelineLayout
from feedsched.optimize import window_slots

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
    @pytest.mark.parametrize("slots,budget", [(1, 0), (1, 6), (3, 0), (4, 3), (5, 4)])
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
