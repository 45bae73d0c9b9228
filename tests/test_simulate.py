"""Monte Carlo replay: agreement with the analytic objective, determinism,
merged-cluster mode, and standard-error scaling."""

import math

import numpy as np
import pytest

from feedsched import (
    FollowerProfile,
    ProblemInstance,
    Schedule,
    attention_potential,
    attention_total,
    rounded_instance,
    simulate,
    simulate_merged,
)

from conftest import random_instance, random_feasible_schedule


def one_follower(slots, budget, sigma, rho, delta, load):
    follower = FollowerProfile(
        id="u0", sigma=sigma, rho=rho, delta=delta, gamma=1.0, competitor_load=load
    )
    return ProblemInstance(slots=slots, budget=budget, followers=(follower,))


class TestSimulate:
    def test_no_randomness_survives_degenerate_parameters(self):
        instance = one_follower(3, 5, 1, 0.0, 1.0, (2.0, 0.0, 1.0))
        schedule = Schedule((2, 0, 3))
        result = simulate(schedule, instance, days=200, seed=1)
        assert result.empirical_total == 5.0
        assert result.standard_error == 0.0

    def test_deterministic_per_seed(self, hand_instance, hand_schedule):
        first = simulate(hand_schedule, hand_instance, days=500, seed=42)
        second = simulate(hand_schedule, hand_instance, days=500, seed=42)
        assert first.empirical_total == second.empirical_total
        assert first.standard_error == second.standard_error
        assert (first.per_cluster == second.per_cluster).all()

    def test_matches_hand_total_within_four_standard_errors(self, hand_instance, hand_schedule):
        result = simulate(hand_schedule, hand_instance, days=20000, seed=3)
        assert result.standard_error > 0
        assert abs(result.empirical_total - 0.4375) <= 4 * result.standard_error

    def test_per_cluster_means_match_analytic(self, hand_instance, hand_schedule):
        result = simulate(hand_schedule, hand_instance, days=50000, seed=5)
        analytic = attention_potential(hand_schedule, hand_instance).per_cluster
        days = result.replications
        for i in range(3):
            mean = result.per_cluster[i, 0]
            se = math.sqrt(max(mean * (1 + mean), 1e-12) / days)  # coarse bound on the SE
            assert abs(mean - analytic[i, 0]) <= 4 * max(se, 1e-4)

    def test_rounded_loads_drive_the_replay(self):
        instance = one_follower(2, 3, 0, 0.5, 1.0, (0.0, 0.6))  # rounds to 1.0
        schedule = Schedule((0, 1))
        result = simulate(schedule, instance, days=30000, seed=11)
        analytic = attention_total(schedule, rounded_instance(instance))
        assert abs(result.empirical_total - analytic) <= 4 * result.standard_error

    def test_standard_error_scales_with_days(self, hand_instance, hand_schedule):
        se_small = simulate(hand_schedule, hand_instance, days=10000, seed=13).standard_error
        se_large = simulate(hand_schedule, hand_instance, days=40000, seed=13).standard_error
        assert se_large == pytest.approx(se_small / 2, rel=0.2)

    def test_zero_followers_rejected(self):
        instance = ProblemInstance(slots=2, budget=1, followers=())
        with pytest.raises(ValueError, match="followers"):
            simulate(Schedule((0, 0)), instance, days=10, seed=0)

    def test_days_validated(self, hand_instance, hand_schedule):
        with pytest.raises(ValueError, match="days"):
            simulate(hand_schedule, hand_instance, days=0, seed=0)

    def test_schedule_length_validated(self, hand_instance):
        with pytest.raises(ValueError, match="slots"):
            simulate(Schedule((1,)), hand_instance, days=10, seed=0)

    @pytest.mark.parametrize("which,field", [("follower", "rho"), ("cluster", "delta")])
    def test_zero_lambda_of_non_geometric_family_rejected_at_entry(self, which, field):
        # The zero schedule on zero loads evaluates no curve, and still fails.
        params = {"rho": 0.5, "delta": 0.5, field: 0.0}
        follower = FollowerProfile(id="u0", sigma=0, competitor_load=(0.0, 0.0), **params)
        instance = ProblemInstance(
            slots=2, budget=1, followers=(follower,), **{f"{which}_survival_family": "exponential"}
        )
        with pytest.raises(ValueError, match="lambda > 0"):
            simulate(Schedule((0, 0)), instance, days=10, seed=0)
        with pytest.raises(ValueError, match="days"):
            simulate(Schedule((0, 0)), instance, days=0, seed=0)


class TestMergedMode:
    def test_zero_schedule_scores_zero_in_both_modes(self, hand_instance):
        zero = Schedule.zeros(3)
        assert simulate(zero, hand_instance, days=100, seed=2).empirical_total == 0.0
        assert simulate_merged(zero, hand_instance, days=100, seed=2).empirical_total == 0.0

    def test_modes_agree_when_competitors_separate_every_slot(self):
        instance = one_follower(3, 4, 2, 0.4, 0.5, (1.0, 2.0, 1.0))
        schedule = Schedule((2, 1, 1))
        per_slot = simulate(schedule, instance, days=20000, seed=7)
        merged = simulate_merged(schedule, instance, days=20000, seed=7)
        spread = 4 * max(per_slot.standard_error, merged.standard_error)
        assert abs(per_slot.empirical_total - merged.empirical_total) <= spread

    def test_merging_penalizes_adjacent_producer_clusters(self):
        instance = one_follower(2, 2, 1, 0.0, 0.5, (0.0, 0.0))
        schedule = Schedule((1, 1))
        per_slot = simulate(schedule, instance, days=20000, seed=9)
        merged = simulate_merged(schedule, instance, days=20000, seed=9)
        # rho=0: per-slot sees both singletons always; merged keeps the pair
        # only when the size-2 cluster survives (probability delta).
        assert per_slot.empirical_total == pytest.approx(2.0)
        assert merged.empirical_total == pytest.approx(1.0, abs=0.05)
        assert merged.empirical_total < per_slot.empirical_total

    @pytest.mark.parametrize("load,merges", [(0.49, True), (0.5, False)])
    def test_merging_follows_rounded_loads(self, load, merges):
        # Two singletons with `load` competitor posts between them: 0.49 rounds
        # to 0 and the pair merges into one cluster kept with probability delta.
        instance = one_follower(2, 2, 1, 0.0, 0.5, (load, 0.0))
        schedule = Schedule((1, 1))
        per_slot = simulate(schedule, instance, days=20000, seed=9)
        merged = simulate_merged(schedule, instance, days=20000, seed=9)
        assert per_slot.empirical_total == 2.0
        if merges:
            assert merged.empirical_total == pytest.approx(1.0, abs=0.05)
        else:
            assert merged.empirical_total == 2.0

    def test_mode_labels(self, hand_instance, hand_schedule):
        assert simulate(hand_schedule, hand_instance, days=10, seed=0).mode == "per-slot-clusters"
        assert (
            simulate_merged(hand_schedule, hand_instance, days=10, seed=0).mode
            == "merged-clusters"
        )


class TestOracleAgreement:
    def test_random_small_instances_within_four_standard_errors(self):
        rng = np.random.default_rng(55)
        checked = 0
        failures = 0
        for _ in range(10):
            instance = random_instance(rng)
            schedule = random_feasible_schedule(rng, instance)
            result = simulate(schedule, instance, days=20000, seed=int(rng.integers(1 << 16)))
            analytic = attention_total(schedule, rounded_instance(instance))
            checked += 1
            if result.standard_error == 0.0:
                failures += result.empirical_total != pytest.approx(analytic, abs=1e-9)
            else:
                failures += (
                    abs(result.empirical_total - analytic) > 4 * result.standard_error
                )
        assert checked == 10
        assert failures <= 1


def _follower(i, sigma, rho, delta, gamma, load):
    return FollowerProfile(
        id=f"u{i}", sigma=sigma, rho=rho, delta=delta, gamma=gamma, competitor_load=load
    )


PINNED_CASES = {
    "geometric": (
        ProblemInstance(
            slots=4,
            budget=6,
            followers=(
                _follower(0, 1, 0.3, 0.6, 1.0, (1.0, 0.0, 2.0, 0.0)),
                _follower(1, 3, 0.1, 0.4, 2.5, (0.0, 0.0, 1.0, 3.0)),
                _follower(2, 0, 0.5, 0.9, 0.5, (0.0, 0.0, 0.0, 0.0)),
            ),
        ),
        Schedule((2, 1, 0, 3)),
        7,
    ),
    "weibull-loglogistic": (
        ProblemInstance(
            slots=4,
            budget=5,
            followers=(
                _follower(0, 2, 0.2, 0.7, 1.0, (0.0, 1.0, 0.0, 2.0)),
                _follower(1, 0, 0.05, 0.3, 1.5, (3.0, 0.0, 0.0, 1.0)),
            ),
            follower_survival_family="weibull",
            follower_survival_p=1.5,
            cluster_survival_family="loglogistic",
            cluster_survival_p=0.8,
            cluster_survival_shifted=False,
        ),
        Schedule((1, 2, 0, 2)),
        8,
    ),
    "fractional-loads": (
        ProblemInstance(
            slots=4,
            budget=6,
            followers=(
                _follower(0, 3, 0.2, 0.5, 1.0, (0.49, 1.5, 0.2, 2.7)),
                _follower(1, 1, 0.15, 0.8, 2.0, (0.5, 0.0, 0.51, 1.49)),
            ),
        ),
        Schedule((1, 2, 1, 2)),
        9,
    ),
}

# (empirical_total, standard_error, per_cluster) over 300 days. A seed must
# replay the same days, so these are compared bit for bit.
PINNED_OUTPUTS = {
    ("geometric", False): (
        4.291666666666667,
        0.2301840949698933,
        [
            [0.6966666666666667, 0.34, 0.78],
            [0.38, 0.0, 0.22333333333333333],
            [0.14, 0.42333333333333334, 0.0],
            [0.0, 0.2633333333333333, 0.013333333333333334],
        ],
    ),
    ("geometric", True): (
        2.265,
        0.1588062525972799,
        [
            [0.6966666666666667, 0.30666666666666664, 0.48333333333333334],
            [0.04, 0.0, 0.12333333333333334],
            [0.023333333333333334, 0.06333333333333334, 0.0],
            [0.0, 0.11, 0.0033333333333333335],
        ],
    ),
    ("weibull-loglogistic", False): (
        2.841666666666667,
        0.15541970962198387,
        [
            [0.0, 0.5066666666666667],
            [0.43666666666666665, 0.5566666666666666],
            [0.12, 0.0],
            [0.0, 0.46],
        ],
    ),
    ("weibull-loglogistic", True): (
        2.1533333333333333,
        0.14817532576182452,
        [[0.0, 0.5], [0.4, 0.37], [0.08333333333333333, 0.0], [0.0, 0.24333333333333335]],
    ),
    ("fractional-loads", False): (
        5.93,
        0.25409752426866516,
        [
            [0.32666666666666666, 1.25],
            [0.22333333333333333, 0.5466666666666666],
            [0.10666666666666667, 0.57],
            [0.07333333333333333, 0.23333333333333334],
        ],
    ),
    ("fractional-loads", True): (
        5.59,
        0.24509843766771988,
        [
            [0.21, 1.25],
            [0.07666666666666666, 0.5466666666666666],
            [0.08, 0.57],
            [0.023333333333333334, 0.23333333333333334],
        ],
    ),
}


@pytest.mark.parametrize("case,merged", sorted(PINNED_OUTPUTS))
def test_seeded_outputs_are_pinned(case, merged):
    instance, schedule, seed = PINNED_CASES[case]
    result = simulate(schedule, instance, days=300, seed=seed, merged=merged)
    total, standard_error, per_cluster = PINNED_OUTPUTS[case, merged]
    assert result.empirical_total == total
    assert result.standard_error == standard_error
    assert result.per_cluster.tolist() == per_cluster
