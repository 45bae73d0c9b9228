"""Greedy against its one-scorer oracle: every scan scored by `slot_gains`.

`marginal_allocation` carries the cluster terms of a geometric follower family
across accepted steps (`TimelineLayout.greedy_gains`) and re-scores close
decisions with `slot_gains`. `oracle_marginal_allocation` below is the loop
that scores every scan with `slot_gains`; greedy must make the same decisions,
report the same counts and total, and carry gains within 1e-12 relative.
"""

import numpy as np
import pytest

from feedsched import (
    FAMILIES,
    FollowerProfile,
    ProblemInstance,
    Schedule,
    attention_total,
    marginal_allocation,
    multistart,
)
from feedsched import optimize
from feedsched.formats import instance_from_dict
from feedsched.objective import TimelineLayout
from feedsched.optimize import OptimizationReport
from perfbench import generators

from conftest import family_instance, random_feasible_schedule


def oracle_marginal_allocation(instance, initial=None):
    """Greedy with every scan scored by `TimelineLayout.slot_gains`."""
    slots, budget = instance.slots, instance.budget
    current = initial if initial is not None else Schedule.zeros(slots)
    if len(current.posts) != slots:
        raise ValueError(
            f"initial schedule has {len(current.posts)} slots, expected {slots}"
        )
    if current.spend > budget:
        raise ValueError(
            f"initial schedule spends {current.spend}, exceeding the budget {budget}"
        )
    layout = TimelineLayout.of(instance)
    posts = np.array(current.posts, dtype=np.int64)
    evaluations = 1
    trajectory: list[tuple[int, float]] = []
    while True:
        if posts.sum() >= budget:
            terminated_by = "budget"
            break
        gains = layout.slot_gains(posts)
        evaluations += slots
        best = int(np.argmax(gains))
        if not gains[best] > 0.0:
            terminated_by = "no-gain"
            break
        posts[best] += 1
        trajectory.append((best, float(gains[best])))
    current = Schedule(tuple(posts.tolist()))
    return OptimizationReport(
        current,
        attention_total(current, instance),
        tuple(trajectory),
        evaluations,
        terminated_by,
    )


def assert_same_run(report, oracle):
    assert report.schedule == oracle.schedule
    assert [s for s, _ in report.trajectory] == [s for s, _ in oracle.trajectory]
    assert report.evaluations == oracle.evaluations
    assert report.terminated_by == oracle.terminated_by
    assert report.total == oracle.total
    for (_, gain), (_, expected) in zip(report.trajectory, oracle.trajectory):
        assert abs(gain - expected) <= 1e-12 * abs(expected), (gain, expected)


@pytest.fixture
def slot_gains_calls(monkeypatch):
    """Number of `TimelineLayout.slot_gains` calls made so far."""
    calls = [0]
    scorer = TimelineLayout.slot_gains

    def counting(self, posts):
        calls[0] += 1
        return scorer(self, posts)

    monkeypatch.setattr(TimelineLayout, "slot_gains", counting)
    return calls


def uniform_instance(slots, budget, rho, delta, gamma=1.0, load=1.0, **families):
    """One follower per login slot, all alike, with the same load in every slot."""
    followers = tuple(
        FollowerProfile(f"u{k}", k, rho, delta, gamma, (load,) * slots) for k in range(slots)
    )
    return ProblemInstance(slots=slots, budget=budget, followers=followers, **families)


def plan_instance(seed, followers):
    return instance_from_dict(generators.instance_dict(seed, followers=followers))


class TestAgainstOracle:
    @pytest.mark.parametrize("shifted", [True, False])
    @pytest.mark.parametrize("cluster_family", FAMILIES)
    @pytest.mark.parametrize("follower_family", FAMILIES)
    def test_every_family_from_zero_and_random_starts(
        self, follower_family, cluster_family, shifted
    ):
        rng = np.random.default_rng(
            [FAMILIES.index(follower_family), FAMILIES.index(cluster_family), shifted]
        )
        for _ in range(12):
            instance = family_instance(rng, follower_family, cluster_family, shifted)
            for initial in (None, random_feasible_schedule(rng, instance)):
                assert_same_run(
                    marginal_allocation(instance, initial),
                    oracle_marginal_allocation(instance, initial),
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_plan_shaped_instances(self, seed):
        instance = plan_instance(seed, 300)
        rng = np.random.default_rng(seed)
        for initial in (None, random_feasible_schedule(rng, instance)):
            assert_same_run(
                marginal_allocation(instance, initial),
                oracle_marginal_allocation(instance, initial),
            )

    @pytest.mark.parametrize("follower_family", ["geometric", "weibull"])
    def test_multistart(self, monkeypatch, follower_family):
        rng = np.random.default_rng(5)
        for _ in range(6):
            instance = family_instance(rng, follower_family, "geometric", True)
            report = multistart(instance, 4, 11)
            with monkeypatch.context() as m:
                m.setattr(optimize, "marginal_allocation", oracle_marginal_allocation)
                expected = multistart(instance, 4, 11)
            assert_same_run(report, expected)


class TestEdgeCases:
    def test_exact_ties_go_to_the_lowest_slot(self):
        # rho = 0 reads everything: a first post anywhere gains one per follower,
        # and a second post in a slot gains 2 * delta - 1 = 0
        instance = uniform_instance(4, 6, 0.0, 0.5)
        report = marginal_allocation(instance)
        assert [s for s, _ in report.trajectory] == [0, 1, 2, 3]
        assert report.schedule == Schedule((1, 1, 1, 1))
        assert report.terminated_by == "no-gain"
        assert_same_run(report, oracle_marginal_allocation(instance))

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1e-9])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_rotated_alike_followers(self, rho, delta):
        for shifted in (True, False):
            instance = uniform_instance(6, 9, rho, delta, cluster_survival_shifted=shifted)
            assert_same_run(marginal_allocation(instance), oracle_marginal_allocation(instance))

    def test_rho_one_stops_on_the_first_scan(self):
        instance = uniform_instance(5, 4, 1.0, 0.5)
        report = marginal_allocation(instance)
        assert report.terminated_by == "no-gain"
        assert report.evaluations == 1 + instance.slots
        assert report.trajectory == ()
        assert_same_run(report, oracle_marginal_allocation(instance))

    @pytest.mark.parametrize(
        "rho, delta", [(1e-9, 0.5), (1e-9, 1.0), (0.0, 0.7), (0.4, 0.0), (1.0, 0.9)]
    )
    def test_edge_parameters_mixed_with_plain_followers(self, rho, delta):
        rng = np.random.default_rng(3)
        for _ in range(10):
            instance = family_instance(rng, "geometric", "geometric", bool(rng.integers(2)))
            edge = FollowerProfile(
                "edge", 0, rho, delta, 1.5, instance.followers[0].competitor_load
            )
            instance = ProblemInstance(
                slots=instance.slots,
                budget=instance.budget + 3,
                followers=(*instance.followers, edge),
                cluster_survival_shifted=instance.cluster_survival_shifted,
            )
            assert_same_run(marginal_allocation(instance), oracle_marginal_allocation(instance))

    def test_zero_weight_followers(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            instance = family_instance(rng, "geometric", "geometric", True)
            followers = tuple(
                FollowerProfile(f.id, f.sigma, f.rho, f.delta, 0.0 if k % 2 else f.gamma,
                                f.competitor_load)
                for k, f in enumerate(instance.followers)
            )
            instance = ProblemInstance(
                slots=instance.slots, budget=instance.budget, followers=followers
            )
            assert_same_run(marginal_allocation(instance), oracle_marginal_allocation(instance))

    def test_initial_at_budget_scores_nothing(self, slot_gains_calls):
        instance = plan_instance(0, 40)
        initial = Schedule((1,) * instance.slots)
        report = marginal_allocation(instance, initial)
        assert report.schedule == initial
        assert report.terminated_by == "budget"
        assert report.evaluations == 1
        assert report.trajectory == ()
        assert slot_gains_calls[0] == 0


class TestReScore:
    def test_clear_decisions_never_call_the_exact_scorer(self, slot_gains_calls):
        for seed in range(3):
            report = marginal_allocation(plan_instance(seed, 200))
            assert len(report.trajectory) == 24
        assert slot_gains_calls[0] == 0

    def test_exact_ties_are_re_scored(self, slot_gains_calls):
        marginal_allocation(uniform_instance(4, 6, 0.0, 0.5))
        # 4, 3 and 2 slots share the top gain in the first three scans, the
        # fourth has one slot ahead, and in the fifth every gain is 0
        assert slot_gains_calls[0] == 4

    def test_near_tie_is_re_scored_and_decided_as_the_oracle(self, slot_gains_calls):
        # two followers logging in at slots 0 and 1, alike but for one load
        # that differs in the 15th digit: the first scan's top two gains differ
        # by about 1e-16 of their size
        def instance(nudge):
            followers = (
                FollowerProfile("a", 0, 0.25, 0.5, 1.0, (1.0, 2.0)),
                FollowerProfile("b", 1, 0.25, 0.5, 1.0, (2.0 + nudge, 1.0)),
            )
            return ProblemInstance(slots=2, budget=3, followers=followers)

        for nudge in (0.0, 4e-15, -4e-15):
            near = instance(nudge)
            report = marginal_allocation(near)
            calls = slot_gains_calls[0]
            assert calls >= 1
            assert_same_run(report, oracle_marginal_allocation(near))
            slot_gains_calls[0] = 0
