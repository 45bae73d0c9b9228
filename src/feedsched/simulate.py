"""Monte Carlo replay of the timeline construction and consumption process.

Serves as an independent check on the analytic objective: each replication
builds one day's timeline per follower (competitor posts stacked above the
producer's posts, slot by slot, newest on top), draws how deep the follower
scrolls, and draws one skip decision per producer cluster. A producer post
scores when the follower reaches its depth and its cluster survived.

Scroll depth is drawn by inverse transform from the follower survival curve,
which is exactly equivalent to an independent quit draw after every post
position - including positions inside skipped clusters - so visibility at
depth d matches the analytic model. Competitor loads are rounded half-up to
integers for discrete replay (`rounded_instance`), and every follower's
cluster table - posts and integer depth offsets in timeline order - is read
from the `TimelineLayout` of the rounded instance. Compare against the
analytic value recomputed on the rounded instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# follower_survival and cluster_survival are not called here, but
# perfbench/tracing.py counts calls under these names in this module.
from .model import (  # noqa: F401
    ProblemInstance,
    Schedule,
    cluster_survival,
    follower_survival,
    survival_array,
)
from .objective import TimelineLayout

__all__ = [
    "SimulationResult",
    "rounded_instance",
    "simulate",
    "simulate_merged",
]


@dataclass(frozen=True)
class SimulationResult:
    """Empirical attention statistics over independent replicated days."""

    empirical_total: float
    per_cluster: np.ndarray
    replications: int
    standard_error: float
    seed: int
    mode: str


def rounded_instance(instance: ProblemInstance) -> ProblemInstance:
    """Copy of the instance with competitor loads rounded half-up to integers."""
    followers = tuple(
        replace(f, competitor_load=tuple(float(math.floor(c + 0.5)) for c in f.competitor_load))
        for f in instance.followers
    )
    return replace(instance, followers=followers)


def simulate(
    schedule: Schedule,
    instance: ProblemInstance,
    days: int,
    seed: int,
    merged: bool = False,
) -> SimulationResult:
    """Replay `days` independent days and report empirical attention.

    Randomness is drawn from substreams keyed by (seed, follower index), so
    results do not depend on follower processing order. Deterministic for a
    fixed seed.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    slots = instance.slots
    if len(schedule.posts) != slots:
        raise ValueError(
            f"schedule has {len(schedule.posts)} slots, instance expects {slots}"
        )
    if not instance.followers:
        raise ValueError("the instance has no followers to simulate")

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
    per_cluster.flags.writeable = False
    return SimulationResult(
        empirical_total=empirical_total,
        per_cluster=per_cluster,
        replications=days,
        standard_error=standard_error,
        seed=seed,
        mode="merged-clusters" if merged else "per-slot-clusters",
    )


def simulate_merged(
    schedule: Schedule, instance: ProblemInstance, days: int, seed: int
) -> SimulationResult:
    """As `simulate`, but adjacent producer clusters with no competitor posts
    between them merge into a single cluster before skip draws - a fidelity
    probe for the per-slot cluster assumption of the analytic objective."""
    return simulate(schedule, instance, days, seed, merged=True)
