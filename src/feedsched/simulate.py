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

A cluster kept with probability exactly 0 or 1 (a singleton under the shifted
cluster survival, for one) draws no skip variate: clusters whose fate is
certain are summed by scroll depth, and a follower's skip generator is built
only when some cluster's keep lies strictly between. That follower then draws
its whole (days x groups) block as if every cluster were drawn, so the
results are bit-identical to drawing for every cluster.
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
    """The instance with competitor loads rounded half-up to integers: the
    instance itself when rounding changes no load, a copy otherwise."""
    loads = np.array([f.competitor_load for f in instance.followers])
    rounded = np.floor(loads + 0.5)
    if np.array_equal(rounded, loads):
        return instance
    followers = tuple(
        replace(f, competitor_load=tuple(row))
        for f, row in zip(instance.followers, rounded.tolist())
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
    results do not depend on follower processing order, and a seed replays
    the same days bit for bit.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not instance.followers:
        raise ValueError("the instance has no followers to simulate")

    layout = TimelineLayout(rounded_instance(instance))
    posts = layout.timeline_posts(schedule.posts)  # checks the schedule's length
    offsets = layout.depths(posts).astype(np.int64)
    n = len(instance.followers)
    per_cluster = np.zeros((instance.slots, n))
    day_totals = np.zeros(days)
    # Every timeline holds the schedule's k non-empty slots as k clusters, so
    # these (days x k) scratch buffers serve every follower.
    k = np.count_nonzero(schedule.posts)
    draws, seen = np.empty(days * k), np.empty(days * k)
    kept_buf = np.empty(days * k, dtype=bool)
    ones = np.ones(max(days, k))
    for j in range(n):
        x, z = posts[j], offsets[j]
        length = int(z[-1] + x[-1])
        quit_rng = np.random.default_rng([seed, j, 0])

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
        keep = layout.keep(sizes, layout.delta[j])[group]
        # A cluster survives a day when its group's draw u in [0, 1) is below
        # keep: always at keep 1, never at keep 0, and only between is it drawn.
        sure = keep >= 1.0
        drawn = np.flatnonzero((keep > 0.0) & ~sure)

        # Posts seen of each cluster at every depth 0..length. The sums add
        # small integers, so they are exact in any order.
        reach = np.minimum(np.maximum(np.arange(length + 1.0)[:, None] - starts, 0), counts)
        reach_sure = reach[:, sure]
        hist = np.bincount(depth, minlength=length + 1)
        per_cluster[positions[sure], j] = hist @ reach_sure / days
        day_sum = reach_sure.sum(axis=1)[depth]
        if len(drawn):
            # The whole (days x groups) block is drawn, so the stream is the same
            # whichever clusters read it. Every index is in range, and
            # mode="clip" spares `take` the check that buffers its output.
            m, g = len(drawn), len(sizes)
            skip_rng = np.random.default_rng([seed, j, 1])
            u_skip = skip_rng.random(out=draws[: days * g].reshape(days, g))
            seen_m = seen[: days * m].reshape(days, m)
            kept = kept_buf[: days * m].reshape(days, m)
            np.take(u_skip, group[drawn], axis=1, out=seen_m, mode="clip")
            np.less(seen_m, keep[drawn], out=kept)
            np.take(reach[:, drawn], depth, axis=0, out=seen_m, mode="clip")
            seen_m *= kept
            per_cluster[positions[drawn], j] = ones[:days] @ seen_m / days
            day_sum += seen_m @ ones[:m]
        day_totals += layout.gamma[j] * day_sum

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
