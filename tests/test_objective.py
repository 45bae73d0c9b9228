"""Timeline layout, per-cluster attention, population totals and heatmaps."""

import itertools
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from feedsched import (
    FAMILIES,
    ClusterView,
    FollowerProfile,
    Followers,
    ProblemInstance,
    Schedule,
    attention_potential,
    attention_total,
    cluster_attention,
    cluster_survival,
    heatmap,
    timeline_view,
)
from feedsched.formats import instance_from_dict
from feedsched.objective import TimelineLayout
from perfbench import generators

from conftest import family_instance, random_instance, rotate_instance, rotate_schedule


def one_follower_instance(slots, budget, sigma, rho, delta, load, gamma=1.0):
    follower = FollowerProfile(
        id="u0", sigma=sigma, rho=rho, delta=delta, gamma=gamma, competitor_load=load
    )
    return ProblemInstance(slots=slots, budget=budget, followers=(follower,))


class TestTimelineView:
    def test_hand_layout(self, hand_instance, hand_schedule):
        views = timeline_view(hand_schedule, hand_instance.followers[0])
        assert views == [
            ClusterView(0, 2, 0.0, 0.0, 2),
            ClusterView(1, 0, 1.0, 3.0, 1),
            ClusterView(2, 1, 0.0, 3.0, 0),
        ]

    def test_zero_competitors_top_cluster_has_no_offset(self):
        follower = FollowerProfile(
            id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,) * 4
        )
        views = timeline_view(Schedule((2, 1, 0, 3)), follower)
        assert views[0].depth_offset == 0.0

    def test_single_slot(self):
        follower = FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(4.0,))
        (view,) = timeline_view(Schedule((5,)), follower)
        assert (view.producer_count, view.competitor_above, view.depth_offset) == (5, 4.0, 4.0)

    def test_length_mismatch_rejected(self):
        follower = FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        with pytest.raises(ValueError, match="length"):
            timeline_view(Schedule((1, 1)), follower)

    def test_source_slots_form_a_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            instance = random_instance(rng)
            schedule = Schedule.zeros(instance.slots)
            for follower in instance.followers:
                views = timeline_view(schedule, follower)
                assert sorted(v.source_slot for v in views) == list(range(instance.slots))

    def test_depth_offsets_non_decreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            instance = random_instance(rng)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            for follower in instance.followers:
                views = timeline_view(Schedule(posts), follower)
                offsets = [v.depth_offset for v in views]
                assert all(a <= b for a, b in zip(offsets, offsets[1:]))


class TestClusterAttention:
    def test_pair_at_top(self):
        follower = FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        view = ClusterView(0, 2, 0.0, 0.0, 0)
        assert cluster_attention(view, follower) == pytest.approx(0.375, abs=1e-15)

    def test_empty_cluster_scores_zero(self):
        follower = FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        view = ClusterView(0, 0, 5.0, 5.0, 0)
        assert cluster_attention(view, follower) == 0.0

    def test_singleton_at_depth(self):
        follower = FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        view = ClusterView(2, 1, 0.0, 3.0, 0)
        assert cluster_attention(view, follower) == pytest.approx(0.0625, abs=1e-15)


class TestAttentionPotential:
    def test_zero_schedule(self, hand_instance):
        bd = attention_potential(Schedule.zeros(3), hand_instance)
        assert bd.total == 0.0
        assert not bd.per_cluster.any()

    def test_hand_total(self, hand_instance, hand_schedule):
        bd = attention_potential(hand_schedule, hand_instance)
        assert bd.total == pytest.approx(0.4375, abs=1e-12)
        assert bd.per_cluster[:, 0] == pytest.approx([0.375, 0.0, 0.0625])

    def test_everything_seen_when_no_overload_or_monotony(self):
        instance = one_follower_instance(4, 10, 1, 0.0, 1.0, (3.0, 7.0, 1.0, 2.0))
        schedule = Schedule((2, 3, 0, 5))
        assert attention_potential(schedule, instance).total == pytest.approx(10.0)

    def test_total_matches_weighted_cluster_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            instance = random_instance(rng)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            bd = attention_potential(Schedule(posts), instance)
            gammas = np.array([f.gamma for f in instance.followers])
            expected = float((bd.per_cluster.sum(axis=0) * gammas).sum())
            assert bd.total == pytest.approx(expected, rel=1e-9)
            assert bd.per_source_slot.sum() == pytest.approx(bd.total, rel=1e-9)
            assert bd.per_follower.sum() == pytest.approx(bd.total, rel=1e-9)
            assert (bd.per_cluster >= 0).all()

    def test_fast_total_matches_breakdown(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            instance = random_instance(rng)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            schedule = Schedule(posts)
            assert attention_total(schedule, instance) == pytest.approx(
                attention_potential(schedule, instance).total, rel=1e-12, abs=1e-15
            )

    def test_unshifted_cluster_convention_respected(self):
        base = one_follower_instance(2, 4, 0, 0.5, 0.5, (0.0, 0.0))
        unshifted = ProblemInstance(
            slots=2, budget=4, followers=base.followers, cluster_survival_shifted=False
        )
        schedule = Schedule((2, 0))
        assert attention_total(schedule, base) == pytest.approx(0.375)
        assert attention_total(schedule, unshifted) == pytest.approx(0.1875)

    def test_length_mismatch_rejected(self, hand_instance):
        with pytest.raises(ValueError, match="slots"):
            attention_potential(Schedule((1, 0)), hand_instance)

    def test_non_geometric_families_supported(self):
        follower = FollowerProfile(
            id="u", sigma=0, rho=0.8, delta=0.9, competitor_load=(0.0, 1.0)
        )
        instance = ProblemInstance(
            slots=2,
            budget=3,
            followers=(follower,),
            follower_survival_family="exponential",
            cluster_survival_family="weibull",
            cluster_survival_p=2.0,
        )
        schedule = Schedule((2, 1))
        total = attention_total(schedule, instance)
        assert total == pytest.approx(attention_potential(schedule, instance).total)
        assert total > 0


class TestObjectiveProperties:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            instance = random_instance(rng)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            offset = int(rng.integers(0, instance.slots))
            base = attention_total(Schedule(posts), instance)
            rotated = attention_total(
                rotate_schedule(Schedule(posts), offset), rotate_instance(instance, offset)
            )
            assert rotated == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_adding_posts_never_hurts_without_monotony_aversion(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            instance = random_instance(rng)
            followers = tuple(
                FollowerProfile(
                    id=f.id, sigma=f.sigma, rho=f.rho, delta=1.0, gamma=f.gamma,
                    competitor_load=f.competitor_load,
                )
                for f in instance.followers
            )
            instance = ProblemInstance(
                slots=instance.slots, budget=instance.budget, followers=followers
            )
            posts = tuple(int(v) for v in rng.integers(0, 3, size=instance.slots))
            schedule = Schedule(posts)
            base = attention_total(schedule, instance)
            for slot in range(instance.slots):
                assert attention_total(schedule.with_added(slot), instance) >= base - 1e-12

    def test_non_separability_witness(self):
        instance = one_follower_instance(2, 2, 0, 0.5, 0.1, (0.0, 0.0))
        assert attention_total(Schedule((1, 0)), instance) == pytest.approx(0.5)
        assert attention_total(Schedule((2, 0)), instance) == pytest.approx(0.075)

    def test_follower_permutation_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            instance = random_instance(rng, max_followers=4)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            perm = rng.permutation(len(instance.followers))
            shuffled = ProblemInstance(
                slots=instance.slots,
                budget=instance.budget,
                followers=tuple(instance.followers[k] for k in perm),
            )
            assert attention_total(Schedule(posts), shuffled) == pytest.approx(
                attention_total(Schedule(posts), instance), rel=1e-9
            )

    def test_gamma_scaling_scales_total(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            instance = random_instance(rng)
            posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
            c = 3.7
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
            assert attention_total(Schedule(posts), scaled) == pytest.approx(
                c * attention_total(Schedule(posts), instance), rel=1e-9
            )


class TestHeatmap:
    def test_zero_schedule_gives_zero_grid(self, hand_instance):
        grid = heatmap(Schedule.zeros(3), hand_instance)
        assert grid.shape == (3, 3)
        assert not grid.any()

    def test_hand_attribution(self, hand_instance, hand_schedule):
        grid = heatmap(hand_schedule, hand_instance)
        assert grid[:, 2] == pytest.approx([0.0625, 0.0, 0.375])
        assert not grid[:, 0].any() and not grid[:, 1].any()
        assert grid.sum() == pytest.approx(0.4375)

    def test_mean_centered_rows_sum_to_zero(self, hand_instance, hand_schedule):
        grid = heatmap(hand_schedule, hand_instance, mean_center=True)
        assert np.abs(grid.sum(axis=1)).max() < 1e-9


def oracle_cells(schedule, instance):
    """(follower, view, raw attention) from the per-cluster reference."""
    kwargs = dict(
        follower_family=instance.follower_survival_family,
        follower_p=instance.follower_survival_p,
        cluster_family=instance.cluster_survival_family,
        cluster_p=instance.cluster_survival_p,
        cluster_shifted=instance.cluster_survival_shifted,
    )
    for f in instance.followers:
        for view in timeline_view(schedule, f):
            yield f, view, cluster_attention(view, f, **kwargs)


def assert_layout_keeps_the_oracle_bits(schedule, instance):
    """`TimelineLayout.terms` `==` every oracle cell, and `keep` on the
    timeline's posts `==` `cluster_survival` on every non-empty cluster."""
    layout = TimelineLayout(instance)
    terms = layout.terms(schedule.posts)
    keeps = layout.keep(layout.timeline_posts(schedule.posts), layout.delta)
    row = {f.id: j for j, f in enumerate(instance.followers)}
    for f, view, a in oracle_cells(schedule, instance):
        j, x = row[f.id], view.producer_count
        assert terms[j, view.position] == a, (f.id, view)
        if x:
            keep = cluster_survival(
                f,
                x,
                family=instance.cluster_survival_family,
                p=instance.cluster_survival_p,
                shifted=instance.cluster_survival_shifted,
            )
            assert keeps[j, view.position] == keep, (f.id, view)


def oracle_total(schedule, instance):
    return sum(f.gamma * a for f, _, a in oracle_cells(schedule, instance))


def _reference_attention_total(schedule, instance):
    """`attention_total` as a follower x slot loop in Python floats, the
    reference its layout cells must match with `==`. Under non-geometric
    families it is the breakdown total: the oracle cells summed per follower
    left to right, weighted, then summed by numpy as `attention_potential` does."""
    layout = TimelineLayout(instance)
    posts = layout.timeline_posts(schedule.posts)
    if layout.follower_family != "geometric" or layout.cluster_family != "geometric":
        raw = {}
        for f, _, a in oracle_cells(schedule, instance):
            raw[f.id] = raw.get(f.id, 0.0) + a
        return float(np.array([f.gamma * raw[f.id] for f in instance.followers]).sum())
    shifted = layout.shifted
    total = 0.0
    for xs, loads, q, delta, gamma in zip(
        posts.tolist(),
        layout.loads.tolist(),
        (1.0 - layout.rho[:, 0]).tolist(),
        layout.delta[:, 0].tolist(),
        layout.gamma.tolist(),
    ):
        acc = 0.0
        depth = 0.0
        for x, c in zip(xs, loads):
            z = depth + c
            if x:
                if q == 0.0:
                    inner = 0.0
                elif q == 1.0:
                    inner = float(x)
                else:
                    # sum of q^(z+k) for k = 1..x
                    inner = q**z * (q - q ** (x + 1)) / (1.0 - q)
                acc += delta ** (x - shifted) * inner
            depth = z + x
        total += gamma * acc
    return total


FAMILY_GRID = [
    (ff, cf, shifted) for ff in FAMILIES for cf in FAMILIES for shifted in (True, False)
]


@pytest.mark.parametrize("follower_family,cluster_family,shifted", FAMILY_GRID)
class TestAgreementWithReference:
    """Every population evaluator against the sum of `cluster_attention` over
    `timeline_view`, to 1e-9 relative."""

    def cases(self, follower_family, cluster_family, shifted):
        seed = FAMILY_GRID.index((follower_family, cluster_family, shifted))
        rng = np.random.default_rng(7000 + seed)
        for _ in range(6):
            instance = family_instance(rng, follower_family, cluster_family, shifted)
            for _ in range(3):
                posts = tuple(int(v) for v in rng.integers(0, 4, size=instance.slots))
                yield instance, Schedule(posts)

    def test_totals(self, follower_family, cluster_family, shifted):
        for instance, schedule in self.cases(follower_family, cluster_family, shifted):
            expected = oracle_total(schedule, instance)
            assert attention_total(schedule, instance) == pytest.approx(expected, rel=1e-9)
            assert attention_potential(schedule, instance).total == pytest.approx(
                expected, rel=1e-9
            )
            layout = TimelineLayout(instance)
            assert float(layout.totals(schedule.posts)) == pytest.approx(expected, rel=1e-9)

    def test_reported_evaluators_keep_the_reference_bits(
        self, follower_family, cluster_family, shifted
    ):
        """The reported evaluators read the layout's cells, but with the
        oracle's scalar formulas and summation order: `==`, not a tolerance."""
        for instance, schedule in self.cases(follower_family, cluster_family, shifted):
            per_cluster = attention_potential(schedule, instance).per_cluster
            row = {f.id: j for j, f in enumerate(instance.followers)}
            for f, view, a in oracle_cells(schedule, instance):
                assert per_cluster[view.position, row[f.id]] == a, (f.id, view)
            expected = _reference_attention_total(schedule, instance)
            assert attention_total(schedule, instance) == expected
            assert_layout_keeps_the_oracle_bits(schedule, instance)

    def test_slot_gains_are_one_post_differences(self, follower_family, cluster_family, shifted):
        """`slot_gains` against the difference of two `totals` per slot, to
        1e-12 of their sum. Geometric followers are also scored at rho = 1e-12
        and 1e-9, where a pushed cell changes by a tiny fraction of itself."""
        rhos = (1e-12, 1e-9) if follower_family == "geometric" else ()
        for instance, schedule in self.cases(follower_family, cluster_family, shifted):
            followers = tuple(instance.followers)
            variants = [instance] + [
                replace(instance, followers=tuple(replace(f, rho=rho) for f in followers))
                for rho in rhos
            ]
            posts = np.array(schedule.posts)
            for variant in variants:
                layout = TimelineLayout(variant)
                before = layout.totals(posts)
                after = layout.totals(posts + np.eye(variant.slots, dtype=np.int64))
                error = np.abs(layout.slot_gains(posts) - (after - before))
                assert np.all(error <= 1e-12 * (after + before)), (posts, error)

    def test_layout_terms_per_cluster(self, follower_family, cluster_family, shifted):
        for instance, schedule in self.cases(follower_family, cluster_family, shifted):
            terms = TimelineLayout(instance).terms(schedule.posts)
            expected = np.zeros_like(terms)
            row = {f.id: j for j, f in enumerate(instance.followers)}
            for f, view, a in oracle_cells(schedule, instance):
                expected[row[f.id], view.position] = a
            np.testing.assert_allclose(terms, expected, rtol=1e-9, atol=1e-300)

    def test_schedule_matrix_scores_row_by_row(self, follower_family, cluster_family, shifted):
        rng = np.random.default_rng(11)
        for instance, _ in self.cases(follower_family, cluster_family, shifted):
            matrix = rng.integers(0, 4, size=(5, instance.slots))
            totals = TimelineLayout(instance).totals(matrix)
            expected = [oracle_total(Schedule(tuple(map(int, row))), instance) for row in matrix]
            np.testing.assert_allclose(totals, expected, rtol=1e-9, atol=1e-300)

    def test_schedule_matrix_totals_are_the_reported_totals(
        self, follower_family, cluster_family, shifted
    ):
        """`totals` of a (K x slots) matrix at 1,000 followers equals each
        row's `attention_potential(...).total` with ==, not a tolerance."""
        instance = instance_from_dict(generators.instance_dict(
            FAMILY_GRID.index((follower_family, cluster_family, shifted)), followers=1000,
            follower_survival_family=follower_family, follower_survival_p=1.5,
            cluster_survival_family=cluster_family, cluster_survival_p=2.0,
        ))
        instance = replace(instance, cluster_survival_shifted=shifted)
        matrix = np.random.default_rng(13).integers(0, 4, size=(20, instance.slots))
        totals = TimelineLayout(instance).totals(matrix)
        assert totals.tolist() == [
            attention_potential(Schedule(tuple(map(int, row))), instance).total for row in matrix
        ]

    def test_heatmap_cells(self, follower_family, cluster_family, shifted):
        for instance, schedule in self.cases(follower_family, cluster_family, shifted):
            expected = np.zeros((instance.slots, instance.slots))
            for f, view, a in oracle_cells(schedule, instance):
                expected[view.source_slot, f.sigma] += f.gamma * a
            grid = heatmap(schedule, instance)
            np.testing.assert_allclose(grid, expected, rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("shifted", [True, False])
def test_reported_evaluators_keep_the_reference_bits_at_the_edges(shifted):
    """Under two geometric families, rho at and next to 0 and 1 and delta at 0
    and 1 take `_closed_form_cells` into its q = 0 and q = 1 branches and its
    cancelling form at small rho: the reported evaluators still `==` the
    reference loops there."""
    rng = np.random.default_rng(31)
    slots = 4
    edges = itertools.product([0.0, 1e-12, 1e-9, 1.0 - 1e-12, 1.0], [0.0, 1.0])
    followers = tuple(
        FollowerProfile(
            id=f"u{j}",
            sigma=j % slots,
            rho=rho,
            delta=delta,
            gamma=float(rng.uniform(0.1, 2.0)),
            competitor_load=tuple(float(v) for v in rng.choice([0.0, 0.3, 1.5, 7.25], slots)),
        )
        for j, (rho, delta) in enumerate(edges)
    )
    # the population, and each follower alone so that no cell is lost in a sum
    for group in [followers] + [(f,) for f in followers]:
        instance = ProblemInstance(
            slots=slots, budget=12, followers=group, cluster_survival_shifted=shifted
        )
        row = {f.id: j for j, f in enumerate(group)}
        for posts in [(3, 0, 0, 0), (1, 1, 1, 1), (0, 2, 0, 5), (4, 3, 2, 1)]:
            schedule = Schedule(posts)
            per_cluster = attention_potential(schedule, instance).per_cluster
            for f, view, a in oracle_cells(schedule, instance):
                assert per_cluster[view.position, row[f.id]] == a, (f.id, view)
            expected = _reference_attention_total(schedule, instance)
            assert attention_total(schedule, instance) == expected, (group[0].id, posts)
            assert_layout_keeps_the_oracle_bits(schedule, instance)


class TestGeometricTermsAgainstDecimal:
    """`TimelineLayout.terms` under geometric families against the same sum
    taken with 50 significant digits: keep(x) * sum of (1 - rho)^(z + k) for
    k = 1..x, at each cluster's float depth offset z. The sum must keep
    1e-12 relative accuracy down to rho = 1e-9, where 1 - q cancels, and the
    edges rho = 0 (reads everything) and rho = 1 (reads nothing) hold. Deep
    clusters under a large rho underflow in doubles, so cells below 1e-300 are
    held to that absolute floor instead."""

    @pytest.mark.parametrize("load_scale", [3.0, 40.0])
    @pytest.mark.parametrize("rho", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0])
    def test_terms(self, rho, load_scale):
        rng = np.random.default_rng(int(load_scale))
        followers = tuple(
            FollowerProfile(
                id=f"u{j}",
                sigma=int(rng.integers(24)),
                rho=rho,
                delta=float(rng.uniform(0.2, 1.0)),
                competitor_load=tuple(float(v) for v in rng.uniform(0, load_scale, 24)),
            )
            for j in range(4)
        )
        instance = ProblemInstance(slots=24, budget=24, followers=followers)
        schedule = Schedule(tuple(int(v) for v in rng.integers(0, 4, size=24)))
        terms = TimelineLayout(instance).terms(schedule.posts)
        with localcontext() as ctx:
            ctx.prec = 50
            q = 1 - Decimal(rho)
            for j, follower in enumerate(followers):
                for view in timeline_view(schedule, follower):
                    x, z = view.producer_count, Decimal(view.depth_offset)
                    keep = Decimal(follower.delta) ** max(x - 1, 0)
                    exact = keep * sum(q ** (z + k) for k in range(1, x + 1))
                    error = abs(Decimal(float(terms[j, view.position])) - exact)
                    assert error <= Decimal("1e-12") * exact + Decimal("1e-300"), (j, view)


@pytest.mark.parametrize("follower_family,cluster_family,shifted", FAMILY_GRID)
class TestLargeClusterTerms:
    """`TimelineLayout.terms` against `timeline_view` + `cluster_attention` on
    schedules whose largest cluster holds 5 to 24 posts, to 1e-9 relative.
    Geometric followers include the edges rho = 0 and rho = 1."""

    def test_terms(self, follower_family, cluster_family, shifted):
        rng = np.random.default_rng(FAMILY_GRID.index((follower_family, cluster_family, shifted)))
        slots = 6
        rhos = [0.0, 1.0] if follower_family == "geometric" else [1.0]
        rhos += [float(v) for v in rng.uniform(0.05, 1.0, 6 - len(rhos))]
        followers = tuple(
            FollowerProfile(
                id=f"u{j}",
                sigma=j % slots,
                rho=rho,
                delta=float(rng.uniform(0.05, 1.0)),
                competitor_load=tuple(float(v) for v in rng.uniform(0, 3, slots)),
            )
            for j, rho in enumerate(rhos)
        )
        instance = ProblemInstance(
            slots=slots,
            budget=48,
            followers=followers,
            follower_survival_family=follower_family,
            cluster_survival_family=cluster_family,
            follower_survival_p=float(rng.uniform(0.5, 2.5)),
            cluster_survival_p=float(rng.uniform(0.5, 2.5)),
            cluster_survival_shifted=shifted,
        )
        layout = TimelineLayout(instance)
        for largest in (5, 11, 24):
            posts = rng.integers(0, 4, size=slots)
            posts[rng.integers(slots)] = largest
            schedule = Schedule(tuple(int(v) for v in posts))
            terms = layout.terms(schedule.posts)
            expected = np.zeros_like(terms)
            for f, view, a in oracle_cells(schedule, instance):
                expected[int(f.id[1:]), view.position] = a
            np.testing.assert_allclose(terms, expected, rtol=1e-9, atol=1e-300)


class TestTermsMemory:
    """Scoring a schedule with one 24-post cluster, or with one post in every
    slot, keeps the scratch memory of `terms` and of both reported totals at
    the (followers x slots) shape: the traced peak, layout included, stays
    under twelve such float64 arrays."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            pytest.param(lambda s, i: TimelineLayout(i).terms(s.posts), id="terms"),
            attention_potential,
            attention_total,
        ],
    )
    @pytest.mark.parametrize(
        "posts", [(0,) * 5 + (24,) + (0,) * 18, (1,) * 24], ids=["cluster", "ones"]
    )
    @pytest.mark.parametrize("family", ["geometric", "weibull", "exponential"])
    def test_peak(self, family, posts, evaluate):
        n, slots = 2000, 24
        rng = np.random.default_rng(3)
        followers = Followers(
            [f"u{j}" for j in range(n)],
            rng.integers(0, slots, n),
            rng.uniform(0.05, 1.0, n),
            rng.uniform(0.05, 1.0, n),
            np.ones(n),
            rng.uniform(0, 3, (n, slots)),
        )
        instance = ProblemInstance(
            slots=slots,
            budget=slots,
            followers=followers,
            follower_survival_family=family,
            follower_survival_p=1.5,
        )
        schedule = Schedule(posts)
        tracemalloc.start()
        try:
            evaluate(schedule, instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * slots * 8, peak / (n * slots * 8)


def test_depths_hold_one_array_and_keep_their_bits():
    """`depths` keeps one (followers x slots) float64 array alive, not its
    (followers x 2 slots) running sum, peaks at three, and returns the
    interleaved running sum's even columns bit for bit."""
    n, slots = 2000, 24
    rng = np.random.default_rng(4)
    followers = Followers(
        [f"u{j}" for j in range(n)],
        rng.integers(0, slots, n),
        rng.uniform(0.05, 1.0, n),
        rng.uniform(0.05, 1.0, n),
        np.ones(n),
        rng.uniform(0, 3, (n, slots)),
    )
    layout = TimelineLayout(ProblemInstance(slots=slots, budget=slots, followers=followers))
    x = layout.timeline_posts(rng.integers(0, 3, slots))
    unit = n * slots * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        depths = layout.depths(x)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held < 1.1 * unit, held / unit
    assert peak < 3.1 * unit, peak / unit
    steps = np.empty((n, 2 * slots))
    steps[:, 0::2], steps[:, 1::2] = layout.loads, x
    assert np.array_equal(depths, np.cumsum(steps, axis=1)[:, 0::2])


class TestSharedLayout:
    def test_an_instance_keeps_one_read_only_layout(self, hand_instance):
        layout = TimelineLayout.of(hand_instance)
        assert TimelineLayout.of(hand_instance) is layout
        assert not layout.order.flags.writeable and not layout.loads.flags.writeable
        unshifted = replace(hand_instance, cluster_survival_shifted=False)
        assert TimelineLayout.of(unshifted) is not layout
        assert TimelineLayout.of(unshifted).shifted == 0


class TestZeroFollowers:
    def test_an_empty_population_scores_in_float64(self):
        instance = ProblemInstance(slots=3, budget=2, followers=())
        schedule = Schedule((1, 0, 1))
        assert heatmap(schedule, instance).dtype == np.float64
        assert attention_potential(schedule, instance).per_source_slot.dtype == np.float64
        assert TimelineLayout(instance).slot_gains(schedule.posts).dtype == np.float64


class TestLayoutValidation:
    @pytest.mark.parametrize("which", ["follower", "cluster"])
    def test_zero_lambda_fails_before_any_scoring(self, which):
        follower = FollowerProfile(
            id="u", sigma=0, rho=0.0, delta=0.0, competitor_load=(0.0, 0.0)
        )
        instance = ProblemInstance(
            slots=2, budget=1, followers=(follower,), **{f"{which}_survival_family": "exponential"}
        )
        with pytest.raises(ValueError, match="exponential survival requires lambda > 0"):
            TimelineLayout(instance)
        # Even the empty schedule, which scores no cluster, is refused by both
        # reported evaluators.
        for evaluate in (attention_total, attention_potential):
            with pytest.raises(ValueError, match="lambda > 0"):
                evaluate(Schedule.zeros(2), instance)

    def test_length_mismatch_rejected(self, hand_instance):
        with pytest.raises(ValueError, match="slots"):
            TimelineLayout(hand_instance).totals((1, 0))

    def test_no_followers_scores_zero(self):
        instance = ProblemInstance(slots=3, budget=2, followers=())
        assert attention_total(Schedule((1, 0, 1)), instance) == 0.0
        assert TimelineLayout(instance).slot_gains((0, 0, 0)).tolist() == [0.0] * 3
