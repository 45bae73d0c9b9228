"""Monte Carlo replay: agreement with the analytic objective, determinism,
merged-cluster mode, standard-error scaling, bit-for-bit agreement with the
per-follower reference loop across replay blocks and across the days whose
skip draws are read, the guide-table scroll depths against `searchsorted`,
and peak memory."""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from feedsched import (
    FAMILIES,
    FollowerProfile,
    ProblemInstance,
    Schedule,
    attention_potential,
    attention_total,
    rounded_instance,
    simulate,
    simulate_merged,
)
from feedsched.formats import instance_from_dict
from feedsched.model import survival_array
from feedsched.objective import TimelineLayout
from perfbench import generators

from conftest import family_instance, random_instance, random_feasible_schedule


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

    def test_negative_seed_rejected(self, hand_instance, hand_schedule):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulate(hand_schedule, hand_instance, days=10, seed=-1)

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


def _reference_simulate(schedule, instance, days, seed, merged):
    """The replay as one clipped (days x clusters) int64 array per follower:
    (empirical_total, standard_error, per_cluster) for `simulate` to match
    bit for bit."""
    slots = instance.slots
    layout = TimelineLayout(rounded_instance(instance))
    posts = layout.timeline_posts(schedule.posts)
    offsets = layout.depths(posts).astype(np.int64)
    n = len(instance.followers)
    per_cluster = np.zeros((slots, n))
    day_totals = np.zeros(days)
    for j in range(n):
        x, z = posts[j], offsets[j]
        length = int(z[-1] + x[-1])
        quit_rng = np.random.default_rng([seed, j, 0])
        skip_rng = np.random.default_rng([seed, j, 1])

        # Scroll depth per day: count of depths d with u < F(d).
        curve = survival_array(
            layout.follower_family, layout.rho[j], layout.follower_p, np.arange(1, length + 1)
        )
        u = quit_rng.random(days)
        depth = length - np.searchsorted(curve[::-1], u, side="right")

        # Skip-draw groups: one per non-empty cluster or, merged, one per run of
        # non-empty clusters with no competitor posts between them.
        positions = np.flatnonzero(x)
        starts, counts = z[positions], x[positions]
        joins = np.zeros(len(positions), dtype=bool)
        if merged:
            joins[1:] = starts[1:] == starts[:-1] + counts[:-1]
        group = np.cumsum(~joins) - 1
        sizes = np.bincount(group, weights=counts)
        kept = skip_rng.random((days, len(sizes))) < layout.keep(sizes, layout.delta[j])

        seen = np.clip(depth[:, None] - starts, 0, counts)
        seen *= kept[:, group]
        per_cluster[positions, j] = seen.mean(axis=0)
        day_totals += layout.gamma[j] * seen.sum(axis=1)

    empirical_total = float(day_totals.mean())
    if days > 1:
        standard_error = float(day_totals.std(ddof=1) / math.sqrt(days))
    else:
        standard_error = 0.0
    return empirical_total, standard_error, per_cluster


def _oracle_instance(rng, follower_family, cluster_family, shifted):
    """A random instance with fractional loads: some round to 0 (so merged
    runs form), some sit on a half (which rounds up) and some round to 1 or
    more. A geometric follower family also gets followers with rho 0 and 1."""
    base = family_instance(rng, follower_family, cluster_family, shifted)

    def load():
        return float(rng.choice([0.0, rng.uniform(0, 1), rng.integers(3) + 0.5, rng.uniform(0, 3)]))

    followers = [
        replace(f, competitor_load=tuple(load() for _ in f.competitor_load))
        for f in base.followers
    ]
    if follower_family == "geometric":
        followers += [replace(followers[0], id="rho0", rho=0.0),
                      replace(followers[0], id="rho1", rho=1.0)]
    return replace(base, followers=tuple(followers))


ORACLE_CLUSTER_FAMILIES = ("geometric", "weibull", "loglogistic")


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("cluster_family", ORACLE_CLUSTER_FAMILIES)
@pytest.mark.parametrize("follower_family", FAMILIES)
def test_matches_the_reference_loop_bit_for_bit(follower_family, cluster_family, shifted):
    rng = np.random.default_rng(
        [FAMILIES.index(follower_family), ORACLE_CLUSTER_FAMILIES.index(cluster_family), shifted]
    )
    for _ in range(3):
        instance = _oracle_instance(rng, follower_family, cluster_family, shifted)
        seed = int(rng.integers(1 << 16))
        # The zero schedule leaves every follower without a producer post.
        for schedule in (random_feasible_schedule(rng, instance), Schedule.zeros(instance.slots)):
            for days in (1, 2, 37):
                for merged in (False, True):
                    result = simulate(schedule, instance, days, seed, merged=merged)
                    total, standard_error, per_cluster = _reference_simulate(
                        schedule, instance, days, seed, merged
                    )
                    assert result.empirical_total == total
                    assert result.standard_error == standard_error
                    assert np.array_equal(result.per_cluster, per_cluster)


def _edge_instance(delta, shifted=True, family="geometric"):
    """Four followers on four slots. The first two have loads that all round
    to 0, so their adjacent producer clusters merge; the other two see at
    least one competitor post between every pair of slots."""
    loads = [(0.0, 0.0, 0.0, 0.0), (0.3, 0.49, 0.2, 0.0), (0.7, 1.5, 2.0, 1.0), (3.2, 0.5, 1.0, 2.6)]
    followers = tuple(
        _follower(j, j, 0.1 + 0.1 * j, delta, 1.0 + 0.5 * j, load) for j, load in enumerate(loads)
    )
    return ProblemInstance(
        slots=4,
        budget=6,
        followers=followers,
        cluster_survival_family=family,
        cluster_survival_shifted=shifted,
    )


@pytest.fixture
def generator_keys(monkeypatch):
    """The key of every generator `feedsched.simulate` builds, in order."""
    # The package exports the function `simulate` under the module's name.
    module = importlib.import_module("feedsched.simulate")
    keys = []
    build = module.np.random.default_rng

    def recording(seed=None):
        keys.append(list(seed))
        return build(seed)

    monkeypatch.setattr(module.np.random, "default_rng", recording)
    return keys


def _assert_matches_reference(schedule, instance, merged, days=(1, 2, 37), seed=17):
    for days in days:
        result = simulate(schedule, instance, days, seed, merged=merged)
        total, standard_error, per_cluster = _reference_simulate(
            schedule, instance, days, seed, merged
        )
        assert result.empirical_total == total
        assert result.standard_error == standard_error
        assert np.array_equal(result.per_cluster, per_cluster)


class TestSkipDrawsOnlyWhereUncertain:
    """A cluster kept with probability exactly 0 or 1 draws no skip variate:
    a follower whose clusters are all certain builds only its quit generator,
    and the results stay those of the reference loop bit for bit."""

    def test_all_singletons_under_a_shifted_family_build_one_generator_each(
        self, generator_keys
    ):
        instance = _edge_instance(0.5)
        simulate(Schedule((1, 1, 1, 1)), instance, days=50, seed=3)
        assert generator_keys == [[3, j, 0] for j in range(4)]

    def test_a_two_post_cluster_builds_the_skip_generator(self, generator_keys):
        instance = _edge_instance(0.5)
        simulate(Schedule((2, 0, 1, 1)), instance, days=50, seed=3)
        assert generator_keys == [[3, j, part] for j in range(4) for part in (0, 1)]

    def test_merged_adjacent_singletons_draw_only_where_they_merge(self, generator_keys):
        instance = _edge_instance(0.5)
        simulate(Schedule((1, 1, 0, 0)), instance, days=50, seed=3)
        assert generator_keys == [[3, j, 0] for j in range(4)]
        generator_keys.clear()
        simulate_merged(Schedule((1, 1, 0, 0)), instance, days=50, seed=3)
        # Followers 0 and 1 see no whole competitor post between the two slots.
        assert generator_keys == [[3, 0, 0], [3, 0, 1], [3, 1, 0], [3, 1, 1], [3, 2, 0], [3, 3, 0]]

    @pytest.mark.parametrize("merged", [False, True])
    @pytest.mark.parametrize(
        "delta,shifted,schedule",
        [
            (0.0, True, (2, 1, 0, 3)),  # keep exactly 0 beside exactly 1
            (1.0, True, (2, 1, 0, 3)),  # keep exactly 1 for every size
            (0.5, False, (1, 1, 1, 1)),  # a non-shifted singleton is uncertain
            (0.5, True, (1, 1, 0, 0)),  # merged, two singletons form one uncertain group
            (0.5, True, (0, 0, 0, 0)),  # no producer cluster at all
        ],
        ids=["keep-0", "keep-1", "unshifted-singletons", "adjacent-singletons", "empty"],
    )
    def test_matches_the_reference_loop(self, delta, shifted, schedule, merged):
        _assert_matches_reference(Schedule(schedule), _edge_instance(delta, shifted), merged)

    def test_matches_the_reference_loop_under_a_non_geometric_cluster_family(self):
        # loglogistic keeps a shifted singleton with probability exactly 1 and a
        # larger cluster with probability strictly between 0 and 1.
        instance = _edge_instance(0.8, family="loglogistic")
        for merged in (False, True):
            _assert_matches_reference(Schedule((2, 1, 1, 0)), instance, merged)


# The module, which the package's function `simulate` shadows as an attribute.
SIMULATE = importlib.import_module("feedsched.simulate")


def _padded(curves):
    """Survival curves of any lengths as one block: -1 past each length."""
    longest = max(map(len, curves))
    block = np.full((len(curves), longest + 1), -1.0)
    for r, curve in enumerate(curves):
        block[r, : len(curve)] = curve
    return block


def _with_ends(u):
    """Draws plus the extreme uniforms 0 and nextafter(1, 0) in every row."""
    ends = np.tile([0.0, np.nextafter(1.0, 0.0)], (len(u), 1))
    return np.ascontiguousarray(np.hstack([u, ends]))


class TestScrollDepths:
    """The guide-table lookup against one `searchsorted` per follower, with ==,
    walking no step, a few steps, or far enough that the bisection rarely runs."""

    @pytest.fixture(params=[0, 4, 64], autouse=True)
    def walk_steps(self, request, monkeypatch):
        monkeypatch.setattr(SIMULATE, "_WALK_STEPS", request.param)

    @staticmethod
    def assert_searchsorted(curves, u):
        depth = SIMULATE._scroll_depths(_padded(curves), u)
        assert depth.shape == u.shape
        for r, curve in enumerate(curves):
            curve = np.asarray(curve, dtype=float)
            expected = len(curve) - np.searchsorted(curve[::-1], u[r], side="right")
            assert np.array_equal(depth[r], expected), r

    def test_reads_everything_and_reads_nothing(self):
        # rho 0 gives F = 1 at every depth, rho 1 gives F = 0.
        u = _with_ends(np.random.default_rng(1).random((3, 50)))
        self.assert_searchsorted([np.ones(7), np.zeros(7), np.ones(1)], u)

    def test_curve_values_and_draws_on_bucket_edges(self):
        # 8 depths take G = 32 buckets; curve values and draws sit on k / 32.
        guide = SIMULATE._guide_size(8)
        assert guide == 32
        curve = np.array([32, 31, 17, 16, 16, 3, 1, 0]) / guide
        edges = np.arange(guide) / guide
        draws = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0)])
        u = _with_ends(np.tile(draws, (2, 1)))
        self.assert_searchsorted([curve, curve[:5]], u)

    def test_draws_equal_to_curve_values(self):
        curve = survival_array("geometric", np.array([0.3]), 1.0, np.arange(1, 40))
        u = _with_ends(np.tile(curve, (1, 1)))
        self.assert_searchsorted([curve], u)

    @pytest.mark.parametrize(
        "family,lam,p",
        [("geometric", 0.9, 1.0), ("weibull", 0.5, 1.5), ("loglogistic", 1.0, 3.0)],
    )
    def test_a_steep_curve_crowds_its_tail_into_bucket_zero(self, family, lam, p):
        curve = survival_array(family, np.array([lam]), p, np.arange(1, 301))
        rng = np.random.default_rng(2)
        guide = SIMULATE._guide_size(300)
        assert np.count_nonzero(curve < 1.0 / guide) > 100
        # Draws below 1 / G start at the top of the tail and walk or bisect it.
        tiny = 10.0 ** -rng.uniform(0.0, 300.0, 200)
        u = _with_ends(np.vstack([tiny, rng.random(200), rng.random(200) / guide]))
        self.assert_searchsorted([curve, curve[:150], curve], u)

    def test_zero_length_timelines(self):
        u = _with_ends(np.random.default_rng(3).random((3, 20)))
        self.assert_searchsorted([[], [0.5], []], u)
        self.assert_searchsorted([[], [], []], u)

    def test_one_day(self):
        rng = np.random.default_rng(4)
        curves = [survival_array("exponential", np.array([lam]), 1.0, np.arange(1, 1 + n))
                  for lam, n in ((0.05, 90), (0.7, 3), (1.0, 0))]
        for u in (rng.random((3, 1)), np.zeros((3, 1)), np.full((3, 1), np.nextafter(1.0, 0.0))):
            self.assert_searchsorted(curves, u)


@pytest.mark.parametrize("family", FAMILIES)
def test_block_survival_curves_are_the_per_follower_curves_and_non_increasing(family):
    """Each row of the block's survival table equals the curve of that follower
    alone on its own length, and `np.minimum.accumulate` leaves it unchanged, bit
    for bit, at the edges of lambda (and p) and in between."""
    if family == "geometric":
        lams = [0.0, 1e-12, 1e-6, 0.3, 0.5, 1.0 - 1e-12, 1.0]
    else:
        lams = [1e-12, 1e-6, 0.05, 0.3, 0.5, 1.0 - 1e-12, 1.0]
    ps = [0.05, 0.5, 1.0, 2.5, 20.0] if family in ("weibull", "loglogistic") else [1.0]
    depths = np.arange(1, 2001)
    for p in ps:
        curve = survival_array(family, np.array(lams)[:, None], p, depths)
        assert np.array_equal(np.minimum.accumulate(curve, axis=1), curve), p
        for lam, row in zip(lams, curve):
            for length in (1, 7, 1000, 2000):
                alone = survival_array(family, np.array([lam]), p, depths[:length])
                assert np.array_equal(row[:length], alone), (lam, p, length)


def _many_followers(rng, n, follower_family, cluster_family, shifted):
    """n followers on 5 slots whose timelines differ in length (up to about 70
    posts); the first has no competitor posts, so the zero schedule leaves it
    an empty timeline, and geometric families get rho or delta 0 and 1."""

    def lam(family):
        edges = [0.0, 1.0] if family == "geometric" else [1.0]
        return float(rng.choice(edges + [rng.uniform(0.01, 1.0)] * 2))

    followers = tuple(
        FollowerProfile(
            id=f"u{j}",
            sigma=int(rng.integers(5)),
            rho=lam(follower_family),
            delta=lam(cluster_family),
            gamma=float(rng.uniform(0.1, 2.0)),
            competitor_load=(0.0,) * 5 if j == 0 else tuple(
                float(v) for v in rng.choice([0.0, 0.4, 1.5, rng.uniform(0.0, 12.0)], size=5)
            ),
        )
        for j in range(n)
    )
    return ProblemInstance(
        slots=5,
        budget=9,
        followers=followers,
        follower_survival_family=follower_family,
        cluster_survival_family=cluster_family,
        follower_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_shifted=shifted,
    )


class TestReplayBlocks:
    """Followers replayed in blocks match the per-follower reference loop bit
    for bit wherever the blocks end."""

    @pytest.mark.parametrize("follower_family", FAMILIES)
    @pytest.mark.parametrize(
        "block_cells,days",
        # 600 days exceed every guide table here (at most 4 * 128 buckets), so
        # blocks hold two followers and the fifth is alone; 16 cells are fewer
        # than 37 days, so every follower is a block of its own.
        [(2 * 600, 600), (16, 37)],
        ids=["two-per-block", "one-per-block"],
    )
    def test_matches_the_reference_loop(self, monkeypatch, follower_family, block_cells, days):
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng([FAMILIES.index(follower_family), block_cells])
        for cluster_family, shifted in (("geometric", True), ("loglogistic", False)):
            instance = _many_followers(rng, 5, follower_family, cluster_family, shifted)
            for schedule in (random_feasible_schedule(rng, instance), Schedule.zeros(5)):
                for merged in (False, True):
                    result = simulate(schedule, instance, days, 29, merged=merged)
                    total, standard_error, per_cluster = _reference_simulate(
                        schedule, instance, days, 29, merged
                    )
                    assert result.empirical_total == total
                    assert result.standard_error == standard_error
                    assert np.array_equal(result.per_cluster, per_cluster)

    def test_generators_are_built_in_follower_order_across_blocks(
        self, monkeypatch, generator_keys
    ):
        # 100 days exceed the guide tables of these timelines: two per block.
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", 2 * 100)
        instance = _edge_instance(0.5)
        simulate_merged(Schedule((1, 1, 0, 0)), instance, days=100, seed=3)
        assert generator_keys == [[3, 0, 0], [3, 0, 1], [3, 1, 0], [3, 1, 1], [3, 2, 0], [3, 3, 0]]
        generator_keys.clear()
        simulate(Schedule((2, 0, 1, 1)), instance, days=100, seed=3)
        assert generator_keys == [[3, j, part] for j in range(4) for part in (0, 1)]


class TestDayTiles:
    """A follower whose days exceed `_BLOCK_CELLS` replays them in tiles of
    that many days, reading on from the same generators, and matches the
    reference loop bit for bit wherever the tiles end."""

    @pytest.mark.parametrize("follower_family", ["geometric", "weibull"])
    @pytest.mark.parametrize(
        "block_cells,days",
        # A last tile of 7 days, tiles that end with the days, and one tile.
        [(10, 37), (10, 30), (64, 64)],
        ids=["ragged", "whole", "single"],
    )
    def test_matches_the_reference_loop(self, monkeypatch, follower_family, block_cells, days):
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng([FAMILIES.index(follower_family), block_cells, days])
        for cluster_family, shifted in (("geometric", True), ("loglogistic", False)):
            instance = _many_followers(rng, 3, follower_family, cluster_family, shifted)
            schedule = random_feasible_schedule(rng, instance)
            for merged in (False, True):
                result = simulate(schedule, instance, days, 5, merged=merged)
                total, standard_error, per_cluster = _reference_simulate(
                    schedule, instance, days, 5, merged
                )
                assert result.empirical_total == total
                assert result.standard_error == standard_error
                assert np.array_equal(result.per_cluster, per_cluster)

    def test_generators_are_built_once_per_follower(self, monkeypatch, generator_keys):
        # 50 days in tiles of 8: seven tiles per follower, one key of each kind.
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", 8)
        instance = _edge_instance(0.5)
        simulate(Schedule((2, 0, 1, 1)), instance, days=50, seed=3)
        assert generator_keys == [[3, j, part] for j in range(4) for part in (0, 1)]
        _assert_matches_reference(Schedule((2, 0, 1, 1)), instance, merged=False)

    def test_peak_memory_at_a_long_horizon(self):
        """Past one tile, the traced peak grows by the (days) totals and the
        temporary of their standard deviation, 16 bytes a day: the constant
        covers one tile's draws and skip buffers."""
        days = 300_000
        instance = instance_from_dict(generators.instance_dict(0, followers=2, slots=6))
        tracemalloc.start()
        try:
            simulate(Schedule((1, 1, 2, 2, 2, 2)), instance, days=days, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * days + 8 * 2**20


def _reaching_days(instance, schedule, days, seed, merged):
    """By the reference loop's rules, per follower with a drawn skip group, the
    (days) mask of the days whose scroll depth passes the top of its shallowest
    drawn cluster: the only days on which a skip draw can add a post seen."""
    layout = TimelineLayout(rounded_instance(instance))
    posts = layout.timeline_posts(schedule.posts)
    offsets = layout.depths(posts).astype(np.int64)
    masks = {}
    for j in range(len(instance.followers)):
        x, z = posts[j], offsets[j]
        length = int(z[-1] + x[-1])
        curve = survival_array(
            layout.follower_family, layout.rho[j], layout.follower_p, np.arange(1, length + 1)
        )
        u = np.random.default_rng([seed, j, 0]).random(days)
        depth = length - np.searchsorted(curve[::-1], u, side="right")
        positions = np.flatnonzero(x)
        starts, counts = z[positions], x[positions]
        joins = np.zeros(len(positions), dtype=bool)
        if merged:
            joins[1:] = starts[1:] == starts[:-1] + counts[:-1]
        group = np.cumsum(~joins) - 1
        keep = layout.keep(np.bincount(group, weights=counts), layout.delta[j])[group]
        drawn = (keep > 0.0) & (keep < 1.0)
        if drawn.any():
            masks[j] = depth > starts[drawn].min()
    return masks


def _with_rho(instance, rho, which=None):
    """The instance with rho set for the followers `which` (default all)."""
    followers = tuple(
        replace(f, rho=rho) if which is None or j in which else f
        for j, f in enumerate(instance.followers)
    )
    return replace(instance, followers=followers)


class TestSkipRowsReadWhereReached:
    """A follower's skip block is drawn whole but read only on the days whose
    scroll depth passes its shallowest drawn cluster: through a view of all
    the tile's days when more than half of them reach, else through an index
    of the reaching days. Either way, and wherever the tiles fall, the replay
    matches the reference loop bit for bit."""

    SCHEDULE = Schedule((3, 0, 0, 2, 0, 1))

    @staticmethod
    def eight_followers():
        # Geometric rho in [0.05, 0.2]; the 3- and 2-post clusters are drawn.
        return instance_from_dict(generators.instance_dict(0, followers=8, slots=6))

    @pytest.mark.parametrize("merged", [False, True])
    def test_no_day_reaches_at_rho_one(self, merged):
        instance = _with_rho(_edge_instance(0.5), 1.0)
        schedule = Schedule((2, 0, 1, 1))
        masks = _reaching_days(instance, schedule, 37, 17, merged)
        assert masks and not any(mask.any() for mask in masks.values())
        _assert_matches_reference(schedule, instance, merged)

    @pytest.mark.parametrize("merged", [False, True])
    def test_no_day_reaches_a_drawn_cluster_below_every_depth(self, merged):
        # Login slot 2 puts the 2-post cluster under 12 competitor posts, at
        # depth 18, where rho 0.9 never scrolls; the singletons above are sure.
        followers = tuple(
            FollowerProfile(id=f"u{j}", sigma=2, rho=0.9, delta=0.5, gamma=1.0,
                            competitor_load=(1.0, 1.0, 1.0, 12.0))
            for j in range(2)
        )
        instance = ProblemInstance(slots=4, budget=5, followers=followers)
        schedule = Schedule((1, 1, 1, 2))
        days = 500
        masks = _reaching_days(instance, schedule, days, 17, merged)
        assert len(masks) == 2 and not any(mask.any() for mask in masks.values())
        assert simulate(schedule, instance, days, 17, merged=merged).empirical_total > 0
        _assert_matches_reference(schedule, instance, merged, days=(1, 37, days))

    @pytest.mark.parametrize("merged", [False, True])
    def test_every_day_reaches_at_rho_zero(self, merged):
        instance = _with_rho(_edge_instance(0.5), 0.0)
        schedule = Schedule((2, 0, 1, 1))
        masks = _reaching_days(instance, schedule, 37, 17, merged)
        assert masks and all(mask.all() for mask in masks.values())
        _assert_matches_reference(schedule, instance, merged)

    @pytest.mark.parametrize("merged", [False, True])
    def test_one_block_with_followers_on_both_sides_of_the_rule(self, merged):
        instance, days = self.eight_followers(), 300
        layout = TimelineLayout(instance)
        posts = layout.timeline_posts(self.SCHEDULE.posts)
        longest = int((layout.depths(posts)[:, -1] + posts[:, -1]).max())
        assert 8 * max(days, SIMULATE._guide_size(longest)) <= SIMULATE._BLOCK_CELLS
        shares = [mask.mean() for mask in
                  _reaching_days(instance, self.SCHEDULE, days, 11, merged).values()]
        assert len(shares) == 8
        assert any(share > 0.5 for share in shares)
        assert any(0.0 < share <= 0.5 for share in shares)
        _assert_matches_reference(self.SCHEDULE, instance, merged, days=(days,), seed=11)

    @pytest.mark.parametrize("merged", [False, True])
    def test_a_followers_tiles_fall_on_both_sides_of_the_rule(self, monkeypatch, merged):
        # Tiles of 8 days: follower 6 reads 0, 2, 7, 2, 4, 0, 3 and 4 of them,
        # so its tiles skip every row, copy fewer than half, copy exactly
        # half and take a view, and a tile that reads nothing comes first.
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", 8)
        instance, days = self.eight_followers(), 64
        mask = _reaching_days(instance, self.SCHEDULE, days, 13, merged)[6]
        assert mask.reshape(8, 8).sum(axis=1).tolist() == [0, 2, 7, 2, 4, 0, 3, 4]
        _assert_matches_reference(self.SCHEDULE, instance, merged, days=(days,), seed=13)

    def test_a_follower_who_reads_no_skip_row_still_draws_its_block(self, monkeypatch):
        # Follower 0 never scrolls (rho 1); followers 1.. read on from their
        # own streams, tile after tile.
        monkeypatch.setattr(SIMULATE, "_BLOCK_CELLS", 8)
        instance, days = _with_rho(self.eight_followers(), 1.0, which={0}), 64
        assert not _reaching_days(instance, self.SCHEDULE, days, 13, False)[0].any()
        for merged in (False, True):
            _assert_matches_reference(self.SCHEDULE, instance, merged, days=(days,), seed=13)

        built, build = {}, SIMULATE.np.random.default_rng

        def recording(seed=None):
            built[tuple(seed)] = build(seed)
            return built[tuple(seed)]

        monkeypatch.setattr(SIMULATE.np.random, "default_rng", recording)
        simulate(self.SCHEDULE, instance, days, 13)
        # One skip variate per day and cluster: every tile drew its block.
        drawn = build([13, 0, 1])
        drawn.random(days * 3)
        assert built[13, 0, 1].bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize(
    "schedule", [(1,) * 24, (3, 0, 0, 2, 0, 1) * 4], ids=["singletons", "uncertain"]
)
def test_peak_memory_at_a_thousand_followers_and_two_thousand_days(schedule):
    """The replay's traced peak stays under 7 MB: one block's tables, not the
    (followers x days) draws."""
    instance = instance_from_dict(generators.instance_dict(0, followers=1000))
    tracemalloc.start()
    try:
        simulate(Schedule(schedule), instance, days=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


class TestRoundedInstance:
    def test_fractional_loads_are_copied_and_whole_ones_returned_as_is(self):
        instance = _edge_instance(0.5)
        rounded = rounded_instance(instance)
        assert rounded is not instance
        assert [f.competitor_load for f in rounded.followers] == [
            (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 2.0, 1.0), (3.0, 1.0, 1.0, 3.0)
        ]
        assert rounded_instance(rounded) is rounded
