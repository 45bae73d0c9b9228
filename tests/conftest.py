"""Shared fixtures: the hand-checked 3-slot instance, reference cluster
counts, the reference table's rounding rule, and seeded random-instance
generators."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import pytest

from feedsched import FollowerProfile, ProblemInstance, Schedule

DATA_DIR = Path(__file__).parent / "data"

# Reference cluster statistics: {size bucket: (reactions, total tweets)};
# bucket 11 collects every size above 10.
REFERENCE_COUNTS = {
    1: (15897, 8435832),
    2: (2756, 1819014),
    3: (710, 586665),
    4: (304, 243536),
    5: (126, 126125),
    6: (79, 72486),
    7: (54, 49119),
    8: (21, 26376),
    9: (16, 17019),
    10: (15, 13600),
    11: (28, 49673),
}


def render_bucket_prob(prob) -> Decimal:
    """A bucket's reaction probability as the reference table shows it: half-up
    to 5 decimals. ``prob`` is a float, an int, a Decimal or a decimal string;
    a float is taken at its exact binary value."""
    return Decimal(prob).quantize(Decimal("0.00001"), rounding=ROUND_HALF_UP)


def render_difference_cell(prob_i, prob_j) -> Decimal:
    """A difference-matrix cell as the reference table shows it.

    Each bucket probability is rounded half-up to 5 decimals, the rounded
    values are subtracted, and the difference is rounded half-up to 4
    decimals. This rule is inferred, not documented: it is the only rule tried
    that reproduces all nine displayed cells from ``REFERENCE_COUNTS``
    (rounding the exact difference once to 4 decimals misses cell (4, 5)).
    It uses ``decimal`` because float ``round`` rounds half to even and
    cannot be trusted on a boundary such as 0.00125 - 0.00100 = 0.00025.
    """
    diff = render_bucket_prob(prob_i) - render_bucket_prob(prob_j)
    return diff.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)


@pytest.fixture
def hand_instance() -> ProblemInstance:
    follower = FollowerProfile(
        id="u0", sigma=2, rho=0.5, delta=0.5, gamma=1.0, competitor_load=(0.0, 1.0, 0.0)
    )
    return ProblemInstance(slots=3, budget=3, followers=(follower,))


@pytest.fixture
def hand_schedule() -> Schedule:
    return Schedule((1, 0, 2))


@pytest.fixture
def reference_counts() -> dict[int, tuple[int, int]]:
    return dict(REFERENCE_COUNTS)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def random_instance(
    rng: np.random.Generator,
    max_slots: int = 6,
    max_budget: int = 6,
    max_followers: int = 4,
    max_load: int = 3,
    one_follower_no_competitors_delta_one: bool = False,
) -> ProblemInstance:
    """Small random instance with integral competitor loads."""
    slots = int(rng.integers(1, max_slots + 1))
    budget = int(rng.integers(0, max_budget + 1))
    if one_follower_no_competitors_delta_one:
        n_followers = 1
    else:
        n_followers = int(rng.integers(1, max_followers + 1))
    followers = []
    for j in range(n_followers):
        if one_follower_no_competitors_delta_one:
            delta = 1.0
            load = (0.0,) * slots
        else:
            delta = float(rng.uniform(0.0, 1.0))
            load = tuple(float(v) for v in rng.integers(0, max_load + 1, size=slots))
        followers.append(
            FollowerProfile(
                id=f"u{j}",
                sigma=int(rng.integers(0, slots)),
                rho=float(rng.uniform(0.0, 1.0)),
                delta=delta,
                gamma=float(rng.uniform(0.1, 2.0)),
                competitor_load=load,
            )
        )
    return ProblemInstance(slots=slots, budget=budget, followers=tuple(followers))


def survival_edges(family):
    """(lambdas, shapes p) at the edges of what the family allows, with a few
    values between; families without a shape get p = 1 alone."""
    if family == "geometric":
        lams = [0.0, 1e-12, 1e-6, 0.3, 0.5, 1.0 - 1e-12, 1.0]
    else:
        lams = [1e-12, 1e-6, 0.05, 0.3, 0.5, 1.0 - 1e-12, 1.0]
    ps = [0.05, 0.5, 1.0, 2.5, 20.0] if family in ("weibull", "loglogistic") else [1.0]
    return lams, ps


def family_instance(rng, follower_family, cluster_family, shifted):
    """Random instance under the given families, with the edge values
    rho, delta in {0, 1} mixed in wherever the family allows them.

    Non-geometric families read rho/delta as a lambda, which must be > 0.
    """

    def draw(family):
        edges = [0.0, 1.0] if family == "geometric" else [1.0]
        if rng.uniform() < 0.3:
            return float(rng.choice(edges))
        return float(rng.uniform(0.0, 1.0))

    base = random_instance(rng)
    followers = tuple(
        FollowerProfile(
            id=f.id,
            sigma=f.sigma,
            rho=draw(follower_family),
            delta=draw(cluster_family),
            gamma=f.gamma,
            competitor_load=tuple(c + float(rng.uniform(0.0, 0.5)) for c in f.competitor_load),
        )
        for f in base.followers
    )
    return ProblemInstance(
        slots=base.slots,
        budget=base.budget,
        followers=followers,
        follower_survival_family=follower_family,
        cluster_survival_family=cluster_family,
        follower_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_p=float(rng.uniform(0.5, 2.5)),
        cluster_survival_shifted=shifted,
    )


def random_feasible_schedule(rng: np.random.Generator, instance: ProblemInstance) -> Schedule:
    spend = int(rng.integers(0, instance.budget + 1))
    counts = rng.multinomial(spend, [1.0 / instance.slots] * instance.slots)
    return Schedule(tuple(int(c) for c in counts))


def rotate_instance(instance: ProblemInstance, offset: int) -> ProblemInstance:
    """Shift every slot-indexed quantity forward by `offset` (mod slots)."""
    slots = instance.slots
    followers = tuple(
        FollowerProfile(
            id=f.id,
            sigma=(f.sigma + offset) % slots,
            rho=f.rho,
            delta=f.delta,
            gamma=f.gamma,
            competitor_load=tuple(
                f.competitor_load[(s - offset) % slots] for s in range(slots)
            ),
        )
        for f in instance.followers
    )
    return ProblemInstance(
        slots=slots,
        budget=instance.budget,
        followers=followers,
        follower_survival_family=instance.follower_survival_family,
        cluster_survival_family=instance.cluster_survival_family,
        follower_survival_p=instance.follower_survival_p,
        cluster_survival_p=instance.cluster_survival_p,
        cluster_survival_shifted=instance.cluster_survival_shifted,
    )


def rotate_schedule(schedule: Schedule, offset: int) -> Schedule:
    slots = len(schedule.posts)
    return Schedule(tuple(schedule.posts[(s - offset) % slots] for s in range(slots)))
