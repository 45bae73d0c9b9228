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

Followers are replayed in blocks of at most `_BLOCK_CELLS` (follower x day)
cells. Per follower, a block builds the generators, in the order of a replay
one follower at a time, and fills the follower's row of uniforms; it also
evaluates `keep` for a follower with a group larger than the shift, and
draws the skip block of a follower with an uncertain cluster. All else runs
once per block. A follower whose days alone exceed `_BLOCK_CELLS` replays
them in tiles of that many days from the same generators, and its integer
sums add up over the tiles, so working memory does not grow with the days
beyond the (days) totals. Scroll depths come from a guide table
(`_scroll_depths`): one table lookup and a short walk per draw instead of a
binary search, deciding by the same float comparisons, so the depths are
those of `searchsorted` bit for bit.

A cluster kept with probability exactly 0 or 1 (a singleton under the shifted
cluster survival, for one) draws no skip variate: clusters whose fate is
certain are summed by scroll depth over the whole block, and a follower's skip
generator is built only when some cluster's keep lies strictly between. That
follower then draws its whole (days x groups) block as if every cluster were
drawn, so the results are bit-identical to drawing for every cluster. The
block is drawn whole but read only on the days whose scroll depth passes the
top of the follower's shallowest drawn cluster: on any other day every drawn
cluster adds 0 posts seen, so leaving those days out changes no sum, and the
stream does not depend on which days are read. Every per-day and per-cluster
sum adds small integers, which are exact in any order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

# follower_survival and cluster_survival are not called here, but
# perfbench/tracing.py counts calls under these names in this module.
from .model import (  # noqa: F401
    Followers,
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

# A replay block holds at most this many (follower x day) cells and as many
# (follower x guide bucket) cells, or else one follower, whose days are then
# replayed in tiles of this many. Larger blocks save little time and raise
# peak memory.
_BLOCK_CELLS = 1 << 15
# Steps a scroll-depth draw walks from its guide bucket before it bisects.
_WALK_STEPS = 4


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
    instance itself when rounding changes no load, else a copy that shares
    every other follower column."""
    f = instance.followers
    rounded = np.floor(f.competitor_load + 0.5)
    if np.array_equal(rounded, f.competitor_load):
        return instance
    return replace(
        instance, followers=Followers(f.ids, f.sigma, f.rho, f.delta, f.gamma, rounded)
    )


def _guide_size(longest: int) -> int:
    """Guide-table buckets for survival curves of up to `longest` depths: the
    least power of two >= 4 * longest, and 4 for empty timelines."""
    return 4 << max(longest - 1, 0).bit_length()


def _scroll_depths(curve: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Scroll depth of every draw of a block: depth[r, t] = #{d : curve[r, d] >
    u[r, t]}, for rows of `curve` that are non-increasing and end in -1.

    Guide-table inversion (Chen & Asau 1974; Devroye 1986, ch. III). With G
    buckets, at_least[r, k] = #{d : curve[r, d] >= k / G}, one `bincount` of
    floor(curve * G) summed from the top. A draw u in bucket b = floor(u * G)
    has its depth between at_least[r, b + 1] and at_least[r, b]: it starts at
    the first and steps while curve[r, depth] > u, and a draw still stepping
    after `_WALK_STEPS` steps (the curve's tail crowds bucket 0) bisects what is
    left of that range. Every step decides by the comparison curve[r, d] > u,
    and u * G and k / G are exact for G a power of two, so the depth equals
    `length - searchsorted(curve[r, :length][::-1], u, "right")` bit for bit.
    """
    rows, width = curve.shape
    days = u.shape[1]
    guide = _guide_size(width - 1)
    row = np.arange(rows)[:, None]
    # floor(F * G) of F in [0, 1] lies in 0..G and goes to bin key + 1; the -1
    # padding goes to bin 0, which no bucket counts.
    keys = np.maximum((curve * guide).astype(np.intp), -1)
    keys += row * (guide + 2) + 1
    counts = np.bincount(keys.ravel(), minlength=rows * (guide + 2)).reshape(rows, guide + 2)
    at_least = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1].ravel()

    # Positions are flat indices into `curve`; curve[r, length_r] = -1 ends
    # every walk inside its own row. `take` buffers its output in its default
    # mode, so `at` can hold its own indices.
    at = np.multiply(u, guide, out=np.empty(u.shape, np.intp), casting="unsafe")
    at += row * (guide + 1)
    np.take(at_least[1:], at, out=at)
    at += row * width
    flat_curve, flat_u, flat_at = curve.ravel(), u.ravel(), at.ravel()
    walking = np.flatnonzero(flat_curve[flat_at] > flat_u)
    for _ in range(_WALK_STEPS):
        flat_at[walking] += 1
        walking = walking[flat_curve[flat_at[walking]] > flat_u[walking]]
    if walking.size:
        # The depth lies in [lo, hi]: curve[lo - 1] > u >= curve[hi].
        v, r = flat_u[walking], walking // days
        lo = flat_at[walking] + 1
        hi = at_least[(v * guide).astype(np.intp) + r * (guide + 1)] + r * width
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            above = flat_curve[mid] > v
            lo = np.where(above, mid + 1, lo)
            hi = np.where(above, hi, mid)
        flat_at[walking] = lo
    at -= row * width
    return at


def _replay_block(
    layout: TimelineLayout,
    first: int,
    x: np.ndarray,
    z: np.ndarray,
    days: int,
    seed: int,
    merged: bool,
    per_cluster: np.ndarray,
    tile: int,
    scratch: tuple[np.ndarray, ...],
) -> Iterator[tuple[int, np.ndarray]]:
    """Replay followers first, first + 1, ... whose timeline posts and depth
    offsets are the rows of x and z, `tile` days at a time. Yields each
    tile's first day and its (followers x days) posts seen, and once the last
    tile is read holds the followers' per-cluster means in the columns of
    `per_cluster`, which must start at zero. The skip draws of a follower reuse the (tile x clusters)
    buffers in `scratch`."""
    rows = len(x)
    length = z[:, -1] + x[:, -1]
    longest = int(length.max())

    # Skip-draw groups over the block's clusters, in follower then timeline
    # order: one per non-empty cluster or, merged, one per run of non-empty
    # clusters with no competitor posts between them.
    row, pos = np.nonzero(x)
    starts, counts = z[row, pos], x[row, pos]
    opens = np.ones(len(row), dtype=bool)
    if merged:
        opens[1:] = (row[1:] != row[:-1]) | (starts[1:] != starts[:-1] + counts[:-1])
    group = np.cumsum(opens) - 1
    sizes = np.bincount(group, weights=counts)
    # keep is exactly 1 in every family while size - shifted <= 0, so only a
    # follower with a larger group evaluates keep, on all its groups at once.
    keep = np.ones(len(sizes))
    group_row = row[opens]
    group_first = np.searchsorted(group_row, np.arange(rows + 1))
    for r in np.unique(group_row[sizes > layout.shifted]).tolist():
        g = slice(group_first[r], group_first[r + 1])
        keep[g] = layout.keep(sizes[g], layout.delta[first + r])
    keep = keep[group]
    # A cluster survives a day when its group's draw u in [0, 1) is below
    # keep: always at keep 1, never at keep 0, and only between is it drawn.
    sure = keep >= 1.0
    drawn = (keep > 0.0) & ~sure
    drawing = np.zeros(rows, dtype=bool)
    drawing[row[drawn]] = True

    # Each follower's generators are built once, in the order of a replay one
    # follower at a time; every tile reads on from where the last one stopped,
    # so the streams are those of drawing all days at once.
    quit_rngs, skip_rngs = [], {}
    for r in range(rows):
        quit_rngs.append(np.random.default_rng([seed, first + r, 0]))
        if drawing[r]:
            skip_rngs[r] = np.random.default_rng([seed, first + r, 1])

    # Survival F(1..longest) per follower, -1 past its length. A follower who
    # quits at d never reaches d + 1, so F is non-increasing.
    curve = np.full((rows, longest + 1), -1.0)
    curve[:, :longest] = survival_array(
        layout.follower_family,
        layout.rho[first : first + rows],
        layout.follower_p,
        np.arange(1, longest + 1),
    )
    curve[np.arange(longest + 1) >= length[:, None]] = -1.0
    np.minimum.accumulate(curve, axis=1, out=curve)

    # Sure clusters are summed by scroll depth over (followers x depths 0..
    # longest + 1) tables: hist[r, d] counts the days follower r stops at
    # depth d, and sure_seen[r, d] counts the sure posts at depths 1..d.
    on, top, end = row[sure], starts[sure], starts[sure] + counts[sure]
    bounds = np.zeros((rows, longest + 2))
    bounds[on, top + 1] += 1.0
    bounds[on, end + 1] -= 1.0
    sure_seen = np.cumsum(np.cumsum(bounds, axis=1), axis=1).ravel()
    hist = np.zeros(rows * (longest + 2), np.intp)
    cluster_first = np.searchsorted(row, np.arange(rows + 1))

    draws, seen, kept_buf, ones = scratch
    for t0 in range(0, days, tile):
        t_days = min(tile, days - t0)
        u = np.empty((rows, t_days))
        for r, quit_rng in enumerate(quit_rngs):
            quit_rng.random(out=u[r])
        depth = _scroll_depths(curve, u)
        # (followers x days) arrays dominate the tile's memory: each is freed
        # as soon as it is read for the last time.
        del u
        cells = depth + np.arange(rows)[:, None] * (longest + 2)
        hist += np.bincount(cells.ravel(), minlength=len(hist))
        day_sum = sure_seen[cells]
        del cells

        for r, skip_rng in skip_rngs.items():
            c = slice(cluster_first[r], cluster_first[r + 1])
            grp = group[c] - group[c.start]
            mine = np.flatnonzero(drawn[c])
            # The whole (tile x groups) block is drawn, so the stream is the
            # same whichever clusters and days read it, even none. Every index
            # is in range, and mode="clip" spares `take` the check that
            # buffers its output.
            m, g = len(mine), int(grp[-1]) + 1
            u_skip = skip_rng.random(out=draws[: t_days * g].reshape(t_days, g))
            # Only a day that scrolls past the top of the shallowest drawn
            # cluster, the first in timeline order, can see a drawn post. When
            # most days reach, all are read through a view; else the reaching
            # days' draws are copied after the seen_m rows in `seen`, which
            # holds both since n <= t_days / 2 and m <= g <= k.
            at = depth[r]
            reaching = at > starts[c.start + mine[0]]
            n = np.count_nonzero(reaching)
            if n == 0:
                continue
            if 2 * n > t_days:
                read, n = slice(None), t_days
            else:
                read = np.flatnonzero(reaching)
                picked = seen[n * m : n * (m + g)].reshape(n, g)
                u_skip = np.take(u_skip, read, axis=0, out=picked, mode="clip")
                at = at[read]
            seen_m = seen[: n * m].reshape(n, m)
            kept = kept_buf[: n * m].reshape(n, m)
            np.take(u_skip, grp[mine], axis=1, out=seen_m, mode="clip")
            np.less(seen_m, keep[c][mine], out=kept)
            reach = np.arange(length[r] + 1.0)[:, None] - starts[c][mine]
            reach = np.minimum(np.maximum(reach, 0), counts[c][mine])
            np.take(reach, at, axis=0, out=seen_m, mode="clip")
            seen_m *= kept
            # Posts seen of each drawn cluster add up over the tiles in its
            # cell of `per_cluster`: small integers, exact in any order, so
            # the tiles sum to what one pass over all days would.
            per_cluster[pos[c][mine], r] += ones[:n] @ seen_m
            day_sum[r, read] += seen_m @ ones[:m]
        yield t0, day_sum

    # reached[r, d] adds up the days that reach each of the depths 1..d.
    hist = hist.reshape(rows, -1)
    reached = np.cumsum(np.cumsum(hist[:, ::-1], axis=1)[:, ::-1], axis=1)
    per_cluster[pos[sure], on] = (reached[on, end] - reached[on, top]) / days
    per_cluster[pos[drawn], row[drawn]] /= days


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

    layout = TimelineLayout.of(rounded_instance(instance))
    posts = layout.timeline_posts(schedule.posts)  # checks the schedule's length
    offsets = layout.depths(posts).astype(np.int64)
    n = len(instance.followers)
    per_cluster = np.zeros((instance.slots, n))
    day_totals = np.zeros(days)
    # Blocks of `step` followers keep both their (followers x days) draws and
    # their (followers x guide buckets) table within _BLOCK_CELLS cells; a
    # follower whose days alone exceed it replays them in tiles of that many.
    longest = int((offsets[:, -1] + posts[:, -1]).max())
    step = max(1, _BLOCK_CELLS // max(days, _guide_size(longest)))
    tile = min(days, _BLOCK_CELLS)
    # Every timeline holds the schedule's k non-empty slots as k clusters, so
    # these (tile x k) scratch buffers serve every follower.
    k = np.count_nonzero(schedule.posts)
    scratch = (
        np.empty(tile * k), np.empty(tile * k), np.empty(tile * k, dtype=bool), np.ones(max(tile, k))
    )
    for first in range(0, n, step):
        block = slice(first, first + step)
        for t0, day_sum in _replay_block(
            layout, first, posts[block], offsets[block], days, seed, merged,
            per_cluster[:, block], tile, scratch,
        ):
            # Weighted day sums add up in follower order, as one follower at a
            # time adds them, so the totals keep their bits.
            for weighted in layout.gamma[block, None] * day_sum:
                day_totals[t0 : t0 + len(weighted)] += weighted
    # Freed before `std` allocates its (days) temporary.
    del scratch

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
