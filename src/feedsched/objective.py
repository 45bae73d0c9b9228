"""Attention potential of a broadcast schedule over a follower population.

A follower logging in at the end of slot ``sigma`` sees one day of posts,
newest first: the cluster at position i originates from broadcast slot
``(sigma - i) mod S`` with that slot's competitor posts stacked directly
above it. A producer post is seen when the follower both scrolls deep
enough and does not skip its cluster; the attention potential of a schedule
is the expected number of producer posts seen, summed over followers with
their weights.

`timeline_view` and `cluster_attention` spell this out one follower and one
cluster at a time and serve as the test oracle. `TimelineLayout` holds the
same layout as (followers x slots) arrays, and every consumer reads it: the
optimizers score many schedules at once on it, the simulator reads its cluster
tables from it, and `attention_potential` reports its cells. Its one cluster
formula, `TimelineLayout.term`, takes every power with `np.float_power`, the C
library's `pow` per element, so that its cells give the bits of the oracle's
Python scalars. `attention_total` keeps the one other coding, a geometric
closed form whose reported bits are pinned.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .model import (
    FollowerProfile,
    ProblemInstance,
    Schedule,
    SurvivalModel,
    cluster_survival,
    follower_survival,
    _frozen,
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


def _sum_in_order(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis left to right from 0.0, as a `+=` loop adds (not pairwise)."""
    return np.cumsum(np.concatenate((np.zeros(a.shape[:-1] + (1,)), a), axis=-1), axis=-1)[..., -1]


def _below(push: np.ndarray) -> np.ndarray:
    """Per cell, the sum of `push` over the cells after it along the last axis."""
    deeper = np.zeros_like(push)
    deeper[..., :-1] = np.cumsum(push[..., :0:-1], axis=-1)[..., ::-1]
    return deeper


def _bincount(keys: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Weights summed per key into `length` bins, as float64 even with no
    weights at all (`np.bincount` then counts in int64)."""
    return np.bincount(keys.ravel(), weights.ravel(), length).astype(float, copy=False)


class TimelineLayout:
    """Every follower's timeline as (followers x slots) arrays, built once per
    instance.

    order      -- order[j, i] = (sigma_j - i) mod S, the broadcast slot at
                  timeline position i of follower j
    loads      -- competitor loads gathered into the same timeline order
    rho, delta -- (followers x 1) columns; gamma -- per-follower weights

    The arrays come from the instance's follower columns and are read-only;
    `TimelineLayout.of` keeps one layout per instance. A schedule's posts, or
    a (K x slots) matrix of K schedules, score against it with no Python loop
    over followers. Building the layout checks that `rho`/`delta` are valid
    lambdas for the non-geometric families, so a bad instance fails before
    any scoring.
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
        self.order = (followers.sigma[:, None] - np.arange(slots)) % slots
        loads = followers.competitor_load.reshape(n, slots)
        self.loads = np.take_along_axis(loads, self.order, axis=1)
        self.rho = followers.rho[:, None]
        self.delta = followers.delta[:, None]
        self.gamma = followers.gamma
        _frozen(self.order, self.loads)
        for family, lam, p in (
            (self.follower_family, self.rho, self.follower_p),
            (self.cluster_family, self.delta, self.cluster_p),
        ):
            if family != "geometric" and n:
                SurvivalModel(family, float(lam.min()), p)

    @classmethod
    def of(cls, instance: ProblemInstance) -> "TimelineLayout":
        """The instance's layout, built on its first use and kept with the
        instance, so that the consumers of one instance share one layout. Both
        are immutable."""
        layout = vars(instance).get("_layout")
        if layout is None:
            layout = cls(instance)
            object.__setattr__(instance, "_layout", layout)
        return layout

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
        """Posts above each cluster's first post, for timeline-order posts x,
        added as `timeline_view` adds them (z = consumed + load, then consumed =
        z + x): one running sum over the loads and posts interleaved, in place,
        of which a contiguous copy of the depths outlives the call."""
        steps = np.empty(x.shape[:-1] + (2 * self.slots,))
        steps[..., 0::2] = self.loads
        steps[..., 1::2] = x
        np.cumsum(steps, axis=-1, out=steps)
        return steps[..., 0::2].copy()

    def _survival(self, depth: np.ndarray) -> np.ndarray:
        """Follower survival at `depth`, with the C library's `pow`."""
        return survival_array(self.follower_family, self.rho, self.follower_p, depth, np.float_power)

    def term(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Expected posts seen of a cluster of x producer posts at depth offset
        z, for every timeline position: keep(x) times the follower survival at
        depths z + 1 .. z + x (0 where x = 0), in `cluster_attention`'s float
        operations to the last bit, one depth at a time so memory stays at the
        shape of x and z whatever x is."""
        inner = np.zeros(np.broadcast(x, z).shape)
        for k in range(1, int(x.max(initial=0)) + 1):
            inner += np.where(k <= x, self._survival(z + k), 0.0)
        inner *= self.keep(x, self.delta)
        return inner

    def keep(self, x, delta) -> np.ndarray:
        """Probability that a cluster of x producer posts is not skipped by a
        follower with monotony tolerance `delta` (the cluster family's lambda
        when it is not geometric)."""
        eff = np.maximum(x - self.shifted, 0)
        if self.cluster_family == "geometric":
            return np.float_power(delta, eff)
        return survival_array(self.cluster_family, delta, self.cluster_p, eff, np.float_power)

    def _moves(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's `(grow, push)`: grow = T(x+1, z) - T(x, z) for a post
        added to the cluster, push = T(x, z+1) - T(x, z) for one added above
        it. One survival pass per depth z + k, k = 1 .. max(x) + 1, adds s as
        `term` does and keeps after = F(z + x + 1) and F(z + 1): grow = keep(x+1)
        (s + after) - keep(x) s has the bits of the two `term`s, and push =
        keep(x) (after - F(z + 1)), or -rho T(x, z) under geometric followers."""
        seen = np.zeros(np.broadcast(x, z).shape)
        after = np.empty_like(seen)
        for k in range(1, int(x.max(initial=0)) + 2):
            survival = self._survival(z + k)
            seen += np.where(k <= x, survival, 0.0)
            np.copyto(after, survival, where=k == x + 1)
            first = survival if k == 1 else first
        keep = self.keep(x, self.delta)
        base = seen * keep
        grow = self.keep(x + 1, self.delta) * (seen + after) - base
        if self.follower_family == "geometric":
            return grow, base * -self.rho
        return grow, keep * (after - first)

    def attention_table(self, budget: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Weighted attention of every cluster that a schedule spending at most
        `budget` posts can form, summed per login group: `(order, table)`.

        order[g] is the timeline order shared by the followers of the g-th
        login slot present, and table[g, i, P, x] is the sum over them of
        gamma * keep(x) * (F(L + P + 1) + ... + F(L + P + x)) for a cluster
        of x posts at timeline position i below P producer posts, where L is
        the follower's competitor load at and above position i. A schedule's
        total is the sum of table[g, i, P, x] over groups and positions.
        Entries with P + x > budget are 0. Followers are taken in blocks of
        about `block` table cells, so memory is bounded at any population.
        """
        n, slots, width = len(self.gamma), self.slots, budget + 1
        logins, group = np.unique(self.order[:, 0], return_inverse=True)
        table = np.zeros((len(logins), slots, width, width))
        # F(L + P + k) is column P + k - 1 of the survival at depths L + 1 ..
        # L + budget, padded with a 0 column for P + k > budget
        step = np.arange(width)[:, None] + np.arange(1, width)
        step = np.where(step <= budget, step - 1, budget)
        loads = np.cumsum(self.loads, axis=1)[..., None]
        size = np.arange(width)
        rows = max(1, block // (slots * width * width))
        for lo in range(0, n, rows):
            part = slice(lo, lo + rows)
            seen = np.zeros(loads[part].shape[:-1] + (width,))
            seen[..., :budget] = survival_array(
                self.follower_family, self.rho[part, :, None], self.follower_p,
                loads[part] + size[1:],
            )
            cells = np.zeros(seen.shape + (width,))
            np.cumsum(seen[..., step], axis=-1, out=cells[..., 1:])
            cells *= (self.keep(size, self.delta[part]) * self.gamma[part, None])[:, None, None]
            np.add.at(table, group[part], cells)
        return (logins[:, None] - np.arange(slots)) % slots, table

    def terms(self, posts) -> np.ndarray:
        """Raw per-cluster attention in timeline order, shaped like
        `timeline_posts(posts)`."""
        x = self.timeline_posts(posts)
        return self.term(x, self.depths(x))

    def _closed_form_cells(self, x, z) -> np.ndarray:
        """`term` of two geometric families in the pinned closed form: keep(x)
        times the sum of q^(z+k) for k = 1..x, as q^z (q - q^(x+1)) / (1 - q)
        with q = 1 - rho, and as 0 at q = 0 and x at q = 1. An empty cell is
        exactly 0, as q^z (q - q) = 0."""
        q = np.broadcast_to(1.0 - self.rho, x.shape)
        inner = np.where(q == 0.0, 0.0, x)
        part = (q > 0.0) & (q < 1.0)
        qp = q[part]
        power = np.float_power
        inner[part] = power(qp, z[part]) * (qp - power(qp, x[part] + 1)) / (1.0 - qp)
        inner *= self.keep(x, self.delta)
        return inner

    def totals(self, posts) -> np.ndarray:
        """Weighted total of each schedule, shape posts.shape[:-1]: each
        follower's cells added left to right, as `attention_potential` adds
        them, so a schedule's total is its `.total` bit for bit."""
        return (self.gamma * _sum_in_order(self.terms(posts))).sum(axis=-1)

    def slot_gains(self, posts) -> np.ndarray:
        """Change in the total from adding one post to each slot of one
        schedule, from one `_moves` evaluation instead of one per slot: a post
        added at timeline position p grows the cell at p and pushes every
        deeper cell one post down."""
        x = self.timeline_posts(posts)
        grow, push = self._moves(x, self.depths(x))
        return _bincount(self.order, (grow + _below(push)) * self.gamma[:, None], self.slots)

    def greedy_gains(self, posts) -> Generator[np.ndarray, int, None]:
        """Generator of `slot_gains` for each scan of a greedy run from `posts`,
        sent each accepted slot. Under a geometric follower family it carries
        gamma * (grow, push) of `_moves` per cell, summed per login slot and
        timeline position in each scan. A post at slot s sits at position p_j
        = (sigma_j - s) mod S; every deeper cell gets z + 1, which multiplies
        it by q = 1 - rho, and only the cell at p_j is evaluated again. A scan
        whose top two gains, or top gain and 0, lie within 1e-12 of the top
        slot's sum of gamma * (|grow| + |deeper|) is scored by `slot_gains`, as
        carried values can cancel: every decision is the exact scorer's."""
        posts = np.array(posts, dtype=np.int64)
        if self.follower_family != "geometric":
            while True:
                posts[(yield self.slot_gains(posts))] += 1
        slots, rows, sigma = self.slots, np.arange(len(self.gamma)), self.order[:, 0]
        x = self.timeline_posts(posts)
        cells = np.stack(self._moves(x, self.depths(x))) * self.gamma[:, None]
        del x
        loads = np.cumsum(self.loads, axis=1)
        login = np.arange(slots)
        key = np.arange(2)[:, None, None] * slots * slots + sigma[:, None] * slots + login
        rotation = np.subtract.outer(login, login) % slots
        # scale[j, S - 1 - p] is 1 down to position p and q_j = 1 - rho_j below it
        ramp = np.repeat(np.hstack((np.ones_like(self.rho), 1.0 - self.rho)), slots, axis=1)
        scale = np.lib.stride_tricks.sliding_window_view(ramp, slots, axis=1)
        while True:
            grow, push = _bincount(key, cells, 2 * slots * slots).reshape(2, slots, slots)
            deeper = _below(push)
            gains = _bincount(rotation, grow + deeper, slots)
            best = int(np.argmax(gains))
            gross = np.abs(cells[0, rows, (sigma - best) % slots]).sum()
            margin = 1e-12 * (gross + np.abs(deeper[login, (login - best) % slots]).sum())
            if np.count_nonzero(gains >= gains[best] - margin) > 1 or abs(gains[best]) <= margin:
                gains = self.slot_gains(posts)
            s = yield gains
            posts[s] += 1
            p = (sigma - s) % slots
            cells *= scale[rows, slots - 1 - p]
            above = np.cumsum(posts)
            z = loads[rows, p] + (above[sigma] - above[s] + (sigma < s) * above[-1])
            moves = self._moves(posts[s : s + 1], z[:, None])
            cells[:, rows, p] = np.hstack(moves).T * self.gamma


def attention_potential(schedule: Schedule, instance: ProblemInstance) -> AttentionBreakdown:
    """Evaluate the schedule against the whole population, with full breakdown.
    Each cell is a `TimelineLayout.term`, summed per follower left to right, so
    the breakdown is the `cluster_attention` reference to the last bit."""
    layout = TimelineLayout.of(instance)
    cells = layout.terms(schedule.posts)
    per_follower = layout.gamma * _sum_in_order(cells)
    per_source_slot = _bincount(layout.order, cells * layout.gamma[:, None], layout.slots)
    per_cluster = np.ascontiguousarray(cells.T)
    total = float(per_follower.sum())
    for arr in (per_cluster, per_follower, per_source_slot):
        arr.flags.writeable = False
    return AttentionBreakdown(per_cluster, per_follower, per_source_slot, total)


def attention_total(schedule: Schedule, instance: ProblemInstance) -> float:
    """Population total of one schedule, as reported by the optimizers: a closed
    form of the geometric inner sum when both survival families are geometric,
    the full breakdown otherwise. Ranking goes through `TimelineLayout.slot_gains`
    (greedy) and `TimelineLayout.attention_table` (exhaustive search)."""
    layout = TimelineLayout.of(instance)
    if layout.follower_family != "geometric" or layout.cluster_family != "geometric":
        return attention_potential(schedule, instance).total
    x = layout.timeline_posts(schedule.posts)
    cells = layout._closed_form_cells(x, layout.depths(x))
    return float(_sum_in_order(layout.gamma * _sum_in_order(cells)))


def heatmap(
    schedule: Schedule, instance: ProblemInstance, mean_center: bool = False
) -> np.ndarray:
    """(broadcast slot x login slot) matrix of weighted attention contributions.

    Cell (s, h) aggregates the attention earned by posts broadcast in slot s
    on the timelines of followers logging in at slot h. With `mean_center`,
    each row has its mean subtracted.
    """
    slots = instance.slots
    layout = TimelineLayout.of(instance)
    weighted = layout.terms(schedule.posts) * layout.gamma[:, None]
    # order[:, 0] is each follower's login slot
    cells = layout.order * slots + layout.order[:, :1]
    grid = _bincount(cells, weighted, slots * slots).reshape(slots, slots)
    if mean_center:
        grid = grid - grid.mean(axis=1, keepdims=True)
    return grid
