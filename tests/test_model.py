"""Survival families, domain-type validation, and model invariants."""

import dataclasses
import math

import numpy as np
import pytest

from feedsched import (
    FAMILIES,
    FollowerProfile,
    Followers,
    ProblemInstance,
    Schedule,
    SurvivalModel,
    cluster_survival,
    follower_survival,
    survival_eval,
)


def make_follower(rho=0.5, delta=0.5, sigma=0, load=(0.0,)):
    return FollowerProfile(
        id="u", sigma=sigma, rho=rho, delta=delta, gamma=1.0, competitor_load=load
    )


class TestSurvivalEval:
    def test_all_families_equal_one_at_zero(self):
        models = [
            SurvivalModel("exponential", 1.0),
            SurvivalModel("geometric", 0.5),
            SurvivalModel("weibull", 0.7, 2.0),
            SurvivalModel("loglogistic", 1.0, 2.0),
            SurvivalModel("rayleigh", 1.0),
        ]
        for model in models:
            assert survival_eval(model, 0.0) == 1.0

    def test_geometric_value(self):
        assert survival_eval(SurvivalModel("geometric", 0.5), 2) == pytest.approx(0.25)

    def test_loglogistic_value(self):
        assert survival_eval(SurvivalModel("loglogistic", 1.0, 2.0), 3) == pytest.approx(0.1)

    def test_rayleigh_value(self):
        assert survival_eval(SurvivalModel("rayleigh", 1.0), 2) == pytest.approx(
            math.exp(-2.0)
        )

    def test_exponential_value(self):
        assert survival_eval(SurvivalModel("exponential", 1.0), 0) == 1.0
        assert survival_eval(SurvivalModel("exponential", 2.0), 1.5) == pytest.approx(
            math.exp(-3.0)
        )

    def test_weibull_value(self):
        assert survival_eval(SurvivalModel("weibull", 0.5, 2.0), 2) == pytest.approx(
            math.exp(-2.0)
        )

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            survival_eval(SurvivalModel("exponential", 1.0), -0.1)

    @pytest.mark.parametrize(
        "family,lam,p,message",
        [
            ("exponential", 0.0, 1.0, "lambda > 0"),
            ("exponential", -1.0, 1.0, "lambda > 0"),
            ("geometric", 0.0, 1.0, "0 < lambda <= 1"),
            ("geometric", 1.5, 1.0, "0 < lambda <= 1"),
            ("weibull", 1.0, 0.0, "p > 0"),
            ("loglogistic", 1.0, -2.0, "p > 0"),
            ("rayleigh", 0.0, 1.0, "lambda > 0"),
            ("exponential", math.inf, 1.0, "finite lambda"),
            ("weibull", math.inf, 1.0, "finite lambda"),
            ("loglogistic", math.inf, 1.0, "finite lambda"),
            ("rayleigh", math.inf, 1.0, "finite lambda"),
            ("geometric", math.inf, 1.0, "0 < lambda <= 1"),
            ("exponential", math.nan, 1.0, "lambda > 0"),
            ("weibull", 1.0, math.inf, "finite p"),
            ("loglogistic", 1.0, math.inf, "finite p"),
            ("weibull", 1.0, math.nan, "p > 0"),
        ],
    )
    def test_parameter_ranges_enforced(self, family, lam, p, message):
        with pytest.raises(ValueError, match=message):
            SurvivalModel(family, lam, p)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown survival family"):
            SurvivalModel("gompertz", 1.0)

    @pytest.mark.parametrize(
        "model",
        [
            SurvivalModel("exponential", 0.8),
            SurvivalModel("geometric", 0.3),
            SurvivalModel("geometric", 1.0),
            SurvivalModel("weibull", 0.4, 1.7),
            SurvivalModel("loglogistic", 0.9, 2.5),
            SurvivalModel("rayleigh", 1.6),
        ],
    )
    def test_monotone_non_increasing(self, model):
        grid = np.linspace(0.0, 12.0, 100)
        values = [survival_eval(model, x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestFollowerSurvival:
    def test_full_consumption(self):
        assert follower_survival(make_follower(rho=0.0), 100) == 1.0

    def test_geometric_depth(self):
        assert follower_survival(make_follower(rho=0.5), 2) == pytest.approx(0.25)

    def test_no_consumption(self):
        assert follower_survival(make_follower(rho=1.0), 1) == 0.0
        assert follower_survival(make_follower(rho=1.0), 0) == 1.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            follower_survival(make_follower(), -1)

    def test_memoryless_product_rule(self):
        follower = make_follower(rho=0.37)
        grid = [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0]
        for a in grid:
            for b in grid:
                lhs = follower_survival(follower, a + b)
                rhs = follower_survival(follower, a) * follower_survival(follower, b)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exponential_matches_geometric_reparametrization(self):
        lam = 0.8
        exp_follower = make_follower(rho=lam)
        geo_follower = make_follower(rho=1.0 - math.exp(-lam))
        for x in range(0, 50):
            expo = follower_survival(exp_follower, x, family="exponential")
            geom = follower_survival(geo_follower, x)
            assert expo == pytest.approx(geom, abs=1e-12)

    def test_non_geometric_family_reads_rho_as_lambda(self):
        follower = make_follower(rho=0.5)
        assert follower_survival(follower, 2, family="rayleigh") == pytest.approx(
            math.exp(-4.0 / (2 * 0.25))
        )


class TestClusterSurvival:
    def test_never_skipping(self):
        assert cluster_survival(make_follower(delta=1.0), 7) == 1.0

    def test_geometric_shifted(self):
        assert cluster_survival(make_follower(delta=0.5), 3) == pytest.approx(0.25)

    def test_singleton_always_survives(self):
        assert cluster_survival(make_follower(delta=0.0), 1) == 1.0

    def test_unshifted_convention(self):
        assert cluster_survival(make_follower(delta=0.5), 3, shifted=False) == pytest.approx(
            0.125
        )

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="cluster size"):
            cluster_survival(make_follower(), 0)

    def test_non_increasing_in_size(self):
        follower = make_follower(delta=0.6)
        values = [cluster_survival(follower, x) for x in range(1, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestDomainTypes:
    def test_schedule_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Schedule((1, -1))

    def test_schedule_rejects_fractional(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            Schedule((1.5, 0))

    def test_schedule_helpers(self):
        sched = Schedule.zeros(3).with_added(1).with_added(1)
        assert sched.posts == (0, 2, 0)
        assert sched.spend == 2
        assert len(sched) == 3

    @pytest.mark.parametrize("field,value", [("rho", 1.2), ("rho", -0.1), ("delta", 2.0)])
    def test_follower_unit_interval_enforced(self, field, value):
        kwargs = dict(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        kwargs[field] = value
        with pytest.raises(ValueError):
            FollowerProfile(**kwargs)

    def test_follower_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, gamma=-1.0, competitor_load=(0.0,))

    def test_follower_negative_load_rejected(self):
        with pytest.raises(ValueError, match="competitor_load"):
            FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(-1.0,))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rho", math.nan),
            ("delta", math.nan),
            ("gamma", math.nan),
            ("gamma", math.inf),
            ("competitor_load", (math.nan,)),
            ("competitor_load", (math.inf,)),
            ("competitor_load", (-math.inf,)),
        ],
    )
    def test_follower_non_finite_rejected(self, field, value):
        kwargs = dict(id="u", sigma=0, rho=0.5, delta=0.5, competitor_load=(0.0,))
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            FollowerProfile(**kwargs)

    def test_nan_load_fails_at_construction_not_in_the_optimizer(self):
        # Before the check, this instance made greedy stop quietly with
        # terminated_by="no-gain" and a total of 0.
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(
                slots=3,
                budget=3,
                followers=(make_follower(load=(math.nan, 1.0, 0.0)),),
            )

    @pytest.mark.parametrize("which", ["follower", "cluster"])
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_instance_rejects_non_finite_shape(self, which, p):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(
                slots=1, budget=1, followers=(make_follower(),), **{f"{which}_survival_p": p}
            )

    @pytest.mark.parametrize("family", ["weibull", "loglogistic"])
    @pytest.mark.parametrize("which", ["follower", "cluster"])
    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_instance_rejects_non_positive_shape(self, family, which, p):
        with pytest.raises(ValueError, match="p > 0"):
            ProblemInstance(
                slots=1,
                budget=1,
                followers=(make_follower(),),
                **{f"{which}_survival_family": family, f"{which}_survival_p": p},
            )

    def test_shape_ignored_by_families_without_one(self):
        instance = ProblemInstance(
            slots=1,
            budget=1,
            followers=(make_follower(),),
            follower_survival_family="exponential",
            follower_survival_p=0.0,
        )
        assert instance.follower_survival_p == 0.0

    def test_instance_rejects_sigma_out_of_range(self):
        follower = make_follower(sigma=3, load=(0.0,) * 3)
        with pytest.raises(ValueError, match="sigma"):
            ProblemInstance(slots=3, budget=1, followers=(follower,))

    def test_instance_rejects_load_length_mismatch(self):
        follower = make_follower(load=(0.0, 0.0))
        with pytest.raises(ValueError, match="length"):
            ProblemInstance(slots=3, budget=1, followers=(follower,))

    def test_instance_rejects_bad_family(self):
        follower = make_follower(load=(0.0,))
        with pytest.raises(ValueError, match="family"):
            ProblemInstance(slots=1, budget=1, followers=(follower,), follower_survival_family="zeta")

    def test_follower_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be a non-negative slot index, got -1"):
            make_follower(sigma=-1)

    @pytest.mark.parametrize(
        "slots, budget, message",
        [
            (0, 1, "slots must be a positive integer, got 0"),
            (1, -1, "budget must be a non-negative integer, got -1"),
        ],
    )
    def test_instance_rejects_bad_slots_and_budget(self, slots, budget, message):
        with pytest.raises(ValueError, match=message):
            ProblemInstance(slots=slots, budget=budget, followers=())

    def test_families_registry(self):
        assert FAMILIES == ("exponential", "geometric", "weibull", "loglogistic", "rayleigh")


class TestFollowerColumns:
    """`ProblemInstance` holds its followers as `Followers` columns, whose
    items are profiles built on access."""

    profiles = (
        FollowerProfile(id="u", sigma=0, rho=0.5, delta=0.25, competitor_load=(0.0, 1.0)),
        FollowerProfile(id="v", sigma=1, rho=0.0, delta=1.0, gamma=2.0, competitor_load=(3.0, 0.5)),
    )

    def test_profiles_are_held_as_read_only_columns(self):
        instance = ProblemInstance(slots=2, budget=1, followers=self.profiles)
        f = instance.followers
        assert isinstance(f, Followers) and len(f) == 2
        assert f == self.profiles and f[1] == self.profiles[1] and f[-1] == self.profiles[1]
        assert f.ids == ("u", "v") and f.sigma.tolist() == [0, 1]
        assert f.gamma.tolist() == [1.0, 2.0]
        assert f.competitor_load.tolist() == [[0.0, 1.0], [3.0, 0.5]]
        for column in (f.sigma, f.rho, f.delta, f.gamma, f.competitor_load):
            assert not column.flags.writeable
        with pytest.raises(IndexError):
            f[2]
        assert hash(instance) == hash(ProblemInstance(slots=2, budget=1, followers=self.profiles))

    def test_replace_shares_the_columns(self):
        instance = ProblemInstance(slots=2, budget=1, followers=self.profiles)
        moved = dataclasses.replace(instance, budget=2)
        assert moved.followers is instance.followers and moved == dataclasses.replace(
            instance, budget=2, followers=self.profiles
        )

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("rho", 1.5, r"rho must lie in \[0, 1\], got 1.5"),
            ("gamma", math.inf, "gamma must be finite and >= 0, got inf"),
            ("sigma", 2, "follower 'v' has sigma=2 outside the 2 slots"),
            ("competitor_load", (0.0, math.nan), "competitor_load entries must be finite"),
        ],
    )
    def test_a_bad_column_entry_is_named_by_its_follower(self, column, value, message):
        columns = {
            "ids": ["u", "v"], "sigma": [0, 1], "rho": [0.5, 0.5], "delta": [0.5, 0.5],
            "gamma": [1.0, 1.0], "competitor_load": [(0.0, 0.0), (0.0, 0.0)],
        }
        columns[column][1] = value
        with pytest.raises(ValueError, match=message):
            ProblemInstance(slots=2, budget=1, followers=Followers(**columns))

    def test_columns_of_the_wrong_width_are_rejected(self):
        columns = Followers(["u"], [0], [0.5], [0.5], [1.0], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="competitor load of length 3, expected 2"):
            ProblemInstance(slots=2, budget=1, followers=columns)

    def test_a_fractional_sigma_is_refused_by_both_paths(self):
        # The same follower as a profile and as columns: neither rounds sigma.
        message = "sigma must be a non-negative slot index, got 1.5"
        with pytest.raises(ValueError, match=message):
            FollowerProfile("a", 1.5, 0.5, 0.5, 1.0, (0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            ProblemInstance(2, 1, Followers(["a"], [1.5], [0.5], [0.5], [1.0], [[0, 1]]))

    @pytest.mark.parametrize("column", ["sigma", "rho", "delta", "gamma", "competitor_load"])
    def test_text_is_refused_by_both_paths(self, column):
        self._assert_refused_by_both_paths(column, "1", "text")

    @pytest.mark.parametrize("column", ["sigma", "rho", "delta", "gamma", "competitor_load"])
    def test_none_is_refused_by_both_paths(self, column):
        self._assert_refused_by_both_paths(column, None, "None")

    @staticmethod
    def _assert_refused_by_both_paths(column, value, named):
        columns = {
            "ids": ["a"], "sigma": [1], "rho": [0.5], "delta": [0.5], "gamma": [1.0],
            "competitor_load": [[0.0, 1.0]],
        }
        columns[column] = [[0.0, value]] if column == "competitor_load" else [value]
        profile = {k: v[0] for k, v in columns.items() if k != "ids"}
        message = f"{column} must hold numbers, not {named}"
        with pytest.raises(TypeError, match=message):
            FollowerProfile("a", **profile)
        with pytest.raises(TypeError, match=message):
            Followers(**columns)

    def test_whole_float_sigmas_are_taken_as_slots(self):
        f = Followers(["a"], [1.0], [0.5], [0.5], [1.0], [[0.0, 1.0]])
        assert f.sigma.dtype == np.intp and f.sigma.tolist() == [1]
