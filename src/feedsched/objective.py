"""Attention potential of a broadcast schedule over a follower population.

A follower logging in at the end of slot ``sigma`` sees one day of posts,
newest first: the cluster at position i originates from broadcast slot
``(sigma - i) mod S`` with that slot's competitor posts stacked directly
above it. A producer post is seen when the follower both scrolls deep
enough and does not skip its cluster; the attention potential of a schedule
is the expected number of producer posts seen, summed over followers with
their weights.

`timeline_view` and `cluster_attention` spell this out one follower and one
cluster at a time and serve as the reference. `TimelineLayout` holds the same
layout as (followers x slots) arrays: the optimizers score many schedules at
once on it and the simulator reads its cluster tables from it.
`attention_total` and `attention_potential` compute the reported totals in
Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FollowerProfile,
    ProblemInstance,
    Schedule,
    SurvivalModel,
    cluster_survival,
    follower_survival,
    survival_array,
)

__all__ = [
    "ClusterView",
    "AttentionBreakdown",
    "timeline_view",
    "cluster_attention",
    "TimelineLayout",
    "attention_potential",
    "attention_total",
    "heatmap",
]


@dataclass(frozen=True)
class ClusterView:
    """One producer cluster as seen on a follower's timeline.

    position         -- cluster index from the top (0 = newest)
    producer_count   -- number of producer posts in the cluster
    competitor_above -- competitor posts sitting directly above the cluster
    depth_offset     -- total posts above the cluster's first post
    source_slot      -- broadcast slot the cluster originated from
    """

    position: int
    producer_count: int
    competitor_above: float
    depth_offset: float
    source_slot: int


@dataclass(frozen=True)
class AttentionBreakdown:
    """Attention of one schedule, broken down per cluster and follower.

    per_cluster     -- (slots, followers) matrix of raw per-cluster attention
    per_follower    -- weight-scaled attention totals per follower
    per_source_slot -- weight-scaled attention re-attributed to the broadcast
                       slot each cluster originated from
    total           -- weighted grand total
    """

    per_cluster: np.ndarray
    per_follower: np.ndarray
    per_source_slot: np.ndarray
    total: float


def timeline_view(schedule: Schedule, follower: FollowerProfile) -> list[ClusterView]:
    """Lay out the schedule on a follower's timeline, newest cluster first."""
    posts = schedule.posts
    slots = len(posts)
    if len(follower.competitor_load) != slots:
        raise ValueError(
            f"schedule has {slots} slots but follower {follower.id!r} has a "
            f"competitor load of length {len(follower.competitor_load)}"
        )
    views = []
    consumed = 0.0
    for i in range(slots):
        s = (follower.sigma - i) % slots
        x = posts[s]
        v = follower.competitor_load[s]
        z = consumed + v
        views.append(ClusterView(i, x, v, z, s))
        consumed = z + x
    return views


def cluster_attention(
    view: ClusterView,
    follower: FollowerProfile,
    *,
    follower_family: str = "geometric",
    follower_p: float = 1.0,
    cluster_family: str = "geometric",
    cluster_p: float = 1.0,
    cluster_shifted: bool = True,
) -> float:
    """Expected number of posts seen within one cluster (0 for empty clusters)."""
    x = view.producer_count
    if x == 0:
        return 0.0
    keep = cluster_survival(
        follower, x, family=cluster_family, p=cluster_p, shifted=cluster_shifted
    )
    if keep == 0.0:
        return 0.0
    z = view.depth_offset
    seen = 0.0
    for k in range(1, x + 1):
        seen += follower_survival(follower, z + k, family=follower_family, p=follower_p)
    return keep * seen


def _family_kwargs(instance: ProblemInstance) -> dict:
    return {
        "follower_family": instance.follower_survival_family,
        "follower_p": instance.follower_survival_p,
        "cluster_family": instance.cluster_survival_family,
        "cluster_p": instance.cluster_survival_p,
        "cluster_shifted": instance.cluster_survival_shifted,
    }


class TimelineLayout:
    """Every follower's timeline as (followers x slots) arrays, built once per
    instance.

    order      -- order[j, i] = (sigma_j - i) mod S, the broadcast slot at
                  timeline position i of follower j
    loads      -- competitor loads gathered into the same timeline order
    rho, delta -- (followers x 1) columns; gamma -- per-follower weights

    A schedule's posts, or a (K x slots) matrix of K schedules, score against
    it with no Python loop over followers. Building the layout checks that
    `rho`/`delta` are valid lambdas for the non-geometric families, so a bad
    instance fails before any scoring.
    """

    def __init__(self, instance: ProblemInstance):
        followers = instance.followers
        n, slots = len(followers), instance.slots
        self.slots = slots
        self.follower_family = instance.follower_survival_family
        self.follower_p = instance.follower_survival_p
        self.cluster_family = instance.cluster_survival_family
        self.cluster_p = instance.cluster_survival_p
        self.shifted = int(instance.cluster_survival_shifted)
        sigma = np.array([f.sigma for f in followers], dtype=np.intp)
        self.order = (sigma[:, None] - np.arange(slots)) % slots
        loads = np.array([f.competitor_load for f in followers], dtype=float)
        self.loads = np.take_along_axis(loads.reshape(n, slots), self.order, axis=1)
        self.rho = np.array([f.rho for f in followers], dtype=float)[:, None]
        self.delta = np.array([f.delta for f in followers], dtype=float)[:, None]
        self.gamma = np.array([f.gamma for f in followers], dtype=float)
        for family, lam, p in (
            (self.follower_family, self.rho, self.follower_p),
            (self.cluster_family, self.delta, self.cluster_p),
        ):
            if family != "geometric" and n:
                SurvivalModel(family, float(lam.min()), p)
        q = 1.0 - self.rho
        self._q, self._q_one = q, q == 1.0
        self._q_den = np.where(self._q_one, 1.0, 1.0 - q)

    def timeline_posts(self, posts) -> np.ndarray:
        """Posts in timeline order: (followers x slots) for one schedule,
        (K x followers x slots) for a (K x slots) matrix of schedules."""
        posts = np.asarray(posts, dtype=np.int64)
        if posts.shape[-1:] != (self.slots,):
            raise ValueError(
                f"schedule has {posts.shape[-1]} slots, instance expects {self.slots}"
            )
        return posts[..., self.order]

    def depths(self, x: np.ndarray) -> np.ndarray:
        """Posts above each cluster's first post, for timeline-order posts x."""
        return np.cumsum(self.loads + x, axis=-1) - x

    def term(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Expected posts seen of a cluster of x producer posts at depth offset
        z, for every timeline position: keep(x) * inner(x, z). Both branches
        of inner are 0 where x = 0."""
        if self.follower_family == "geometric":
            # sum of q^(z+k) for k = 1..x in closed form, computed in place;
            # q = 1 reads everything
            q = self._q
            inner = q ** (x + 1)
            np.subtract(q, inner, out=inner)
            inner *= q**z
            inner /= self._q_den
            inner = np.where(self._q_one, x, inner)
        else:
            k = np.arange(1, int(x.max(initial=0)) + 1)
            seen = survival_array(
                self.follower_family, self.rho[..., None], self.follower_p, z[..., None] + k
            )
            inner = np.where(k <= x[..., None], seen, 0.0).sum(axis=-1)
        inner *= self.keep(x, self.delta)
        return inner

    def keep(self, x, delta) -> np.ndarray:
        """Probability that a cluster of x producer posts is not skipped by a
        follower with monotony tolerance `delta` (the cluster family's lambda
        when it is not geometric)."""
        eff = np.maximum(x - self.shifted, 0)
        if self.cluster_family == "geometric":
            return delta**eff
        return survival_array(self.cluster_family, delta, self.cluster_p, eff)

    def terms(self, posts) -> np.ndarray:
        """Raw per-cluster attention in timeline order, shaped like
        `timeline_posts(posts)`."""
        x = self.timeline_posts(posts)
        return self.term(x, self.depths(x))

    def totals(self, posts) -> np.ndarray:
        """Weighted total of each schedule: shape posts.shape[:-1]."""
        return self.terms(posts).sum(axis=-1) @ self.gamma

    def slot_gains(self, posts) -> np.ndarray:
        """Change in the total from adding one post to each slot of one
        schedule, from at most three term evaluations instead of one per slot.

        A post added at timeline position p turns term p into T(x+1, z) and
        pushes every deeper cluster one post down, to T(x, z+1). Under a
        geometric follower family that push multiplies a term by q.
        """
        x = self.timeline_posts(posts)
        z = self.depths(x)
        base = self.term(x, z)
        grow = self.term(x + 1, z) - base
        if self.follower_family == "geometric":
            push = base * (self._q - 1.0)
        else:
            push = self.term(x, z + 1) - base
        deeper = np.zeros_like(push)
        deeper[:, :-1] = np.cumsum(push[:, :0:-1], axis=1)[:, ::-1]
        gains = (grow + deeper) * self.gamma[:, None]
        return np.bincount(self.order.ravel(), weights=gains.ravel(), minlength=self.slots)


def attention_potential(schedule: Schedule, instance: ProblemInstance) -> AttentionBreakdown:
    """Evaluate the schedule against the whole population, with full breakdown.

    Every cell is `cluster_attention` itself, so the breakdown is the
    reference to the last bit.
    """
    slots = instance.slots
    if len(schedule.posts) != slots:
        raise ValueError(
            f"schedule has {len(schedule.posts)} slots, instance expects {slots}"
        )
    n = len(instance.followers)
    kwargs = _family_kwargs(instance)
    per_cluster = np.zeros((slots, n))
    per_follower = np.zeros(n)
    per_source_slot = np.zeros(slots)
    for j, f in enumerate(instance.followers):
        raw = 0.0
        for view in timeline_view(schedule, f):
            fij = cluster_attention(view, f, **kwargs)
            per_cluster[view.position, j] = fij
            per_source_slot[view.source_slot] += f.gamma * fij
            raw += fij
        per_follower[j] = f.gamma * raw
    total = float(per_follower.sum())
    for arr in (per_cluster, per_follower, per_source_slot):
        arr.flags.writeable = False
    return AttentionBreakdown(per_cluster, per_follower, per_source_slot, total)


def attention_total(schedule: Schedule, instance: ProblemInstance) -> float:
    """Population total of one schedule, as reported by the optimizers.

    Uses a closed form of the geometric inner sum when both survival families
    are geometric, and the full breakdown otherwise. It works in Python
    floats, one term at a time: numpy's vectorised power may differ from the
    C library's in the last bit, and reported totals stay bit-for-bit stable.
    Ranking many candidates goes through `TimelineLayout` instead.
    """
    layout = TimelineLayout(instance)
    posts = layout.timeline_posts(schedule.posts)
    if layout.follower_family != "geometric" or layout.cluster_family != "geometric":
        return attention_potential(schedule, instance).total
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


def heatmap(
    schedule: Schedule, instance: ProblemInstance, mean_center: bool = False
) -> np.ndarray:
    """(broadcast slot x login slot) matrix of weighted attention contributions.

    Cell (s, h) aggregates the attention earned by posts broadcast in slot s
    on the timelines of followers logging in at slot h. With `mean_center`,
    each row has its mean subtracted.
    """
    slots = instance.slots
    layout = TimelineLayout(instance)
    weighted = attention_potential(schedule, instance).per_cluster.T * layout.gamma[:, None]
    # order[:, 0] is each follower's login slot
    cells = layout.order * slots + layout.order[:, :1]
    grid = np.bincount(cells.ravel(), weights=weighted.ravel(), minlength=slots * slots)
    grid = grid.reshape(slots, slots)
    if mean_center:
        grid = grid - grid.mean(axis=1, keepdims=True)
    return grid
