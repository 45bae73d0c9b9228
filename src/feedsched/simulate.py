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

Follower j draws its scroll depths from the substream
`np.random.default_rng([seed, j, 0])` and its skip decisions from
`default_rng([seed, j, 1])`, bit for bit, yet no generator is built per
follower: one vectorised pass of numpy's SeedSequence hash gives the seed
words of `_SEED_CHUNK` followers at once (`_seed_words`), PCG64's seeding step
turns one follower's words into where its stream starts (`_Substreams`), and
that start is set on one reused generator per part just before the follower
draws.

Followers are replayed in groups of at most `_BLOCK_CELLS` (follower x
depth) cells. A group builds its per-follower tables once: skip groups and
`keep` (evaluated for a follower with a group larger than the shift), the
survival curves, the sure-cluster sums and the depth histogram, all with
one row stride of longest + 2 columns. It then draws in blocks of at most
`_BLOCK_CELLS` (follower x day) cells, which read the tables as views of
their rows. Per follower, a block reads the stream starts, in the order of a
replay one follower at a time, fills the follower's row of uniforms, and
draws the skip block of a follower with an uncertain cluster; all else runs
once per block, in (followers x days) buffers held for the call. A follower
whose days alone exceed `_BLOCK_CELLS` replays them in tiles of that many
days, each reading on from where the last stopped, and its integer sums add
up over the tiles, so working memory does not grow with the days beyond the
(days) totals. Scroll depths come from a guide table (`_scroll_depths`) of G
buckets, the least power of two >= 4 * min(longest timeline, ceil(days /
4)): one table lookup and a short walk per draw, and for a draw still walking
in a crowded bucket one count of the curve values above it, deciding by the
same float comparisons, so the depths are those of `searchsorted` bit for
bit whatever G is. They come back as flat indices into the block's rows,
which index the depth histogram and the sure-cluster sums directly.

A cluster kept with probability exactly 0 or 1 (a singleton under the shifted
cluster survival, for one) draws no skip variate: clusters whose fate is
certain are summed by scroll depth over the whole group, and a follower's skip
stream is read only when some cluster's keep lies strictly between. That
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

# A follower group's tables hold at most this many (follower x depth) cells,
# and a draw block at most as many (follower x day) and (follower x guide
# bucket) cells, or else one follower, whose days are then replayed in tiles
# of this many. Larger blocks save little time and raise peak memory.
_BLOCK_CELLS = 1 << 15
# Steps a scroll-depth draw walks from its guide bucket before it counts the
# rest of its range.
_WALK_STEPS = 4
# Followers whose substream seeds one vectorised pass hashes: enough to spread
# the pass's fixed cost of a few hundred numpy calls, few enough that its
# (2 x followers x 4) uint64 words stay at 256 KB.
_SEED_CHUNK = 4096

# numpy's SeedSequence hash (INIT_A, MULT_A; INIT_B, MULT_B; MIX_MULT_L,
# MIX_MULT_R in numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG
# multiplier (O'Neill, "PCG", 2014).
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


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


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The successive values (c, c * mult mod 2**32) of a SeedSequence hash
    constant c that starts at `init`, as masked Python ints: a numpy uint32
    scalar product would warn on overflow, where a uint32 column wraps
    silently."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


def _seed_words(seed: int, followers: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, j, part]).generate_state(4, np.uint64) for part 0
    and 1 and every follower index j in `followers` (each below 2**32), as a
    (2 x followers x 4) uint64 array.

    The hash is SeedSequence's own (`mix_entropy`, then `generate_state`),
    run once over uint32 columns of shape (parts x followers), whose products
    and differences wrap mod 2**32 as the reference's uint32 arithmetic does.
    The entropy is the seed's 32-bit words from the lowest, then j, then part,
    as SeedSequence splits a list of ints."""
    shape = (2, len(followers))
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [
        np.broadcast_to(np.asarray(w, np.uint32), shape) for w in (*words, followers, [[0], [1]])
    ]
    hash_a = _hash_constants(*_HASH_A)

    def hashmix(value):
        const, after = next(hash_a)
        value = (value ^ const) * after
        return value ^ value >> 16

    def mix(x, y):
        value = _MIX[0] * x - _MIX[1] * y
        return value ^ value >> 16

    # mix_entropy into a pool of 4 words.
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(shape, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))

    # generate_state: 8 uint32 words from the pool in turn, paired low word
    # first into 4 uint64 words.
    out = np.empty(shape + (4,), np.uint64)
    for i, (const, after) in zip(range(8), _hash_constants(*_HASH_B)):
        value = (pool[i % 4] ^ const) * after
        value ^= value >> 16
        if i % 2:
            out[..., i // 2] |= value.astype(np.uint64) << 32
        else:
            out[..., i // 2] = value
    return out


class _Substreams:
    """The substreams of a replay: follower j draws its scroll depths from
    np.random.default_rng([seed, j, 0]) and its skip decisions from
    np.random.default_rng([seed, j, 1]), bit for bit. Instead of building two
    generators per follower, `start` hands out where each stream starts, for
    one reused generator per part (`generators`). The SeedSequence hash runs
    for `_SEED_CHUNK` followers at a time (`_seed_words`), and `start` takes
    one follower's words through PCG64's seeding step in Python ints."""

    def __init__(self, seed: int, followers: int):
        self.seed = seed
        self.followers = followers
        self.generators = tuple(np.random.Generator(np.random.PCG64(0)) for _ in range(2))
        self._first = 0
        self._words = np.empty((2, 0, 4), np.uint64)

    def start(self, j: int, part: int) -> dict:
        """The bit generator state of np.random.default_rng([seed, j, part]) as
        built, for follower j < `followers` and part 0 or 1."""
        i = j - self._first
        if not 0 <= i < self._words.shape[1]:
            self._first, i = j, 0
            last = min(j + _SEED_CHUNK, self.followers)
            self._words = _seed_words(self.seed, np.arange(j, last))
        seed_hi, seed_lo, seq_hi, seq_lo = self._words[part, i].tolist()
        # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1, then two LCG steps
        # from state 0 with initstate added between them.
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        return {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _guide_size(longest: int, days: int) -> int:
    """Guide-table buckets for `days` draws per follower from survival curves
    of up to `longest` depths: the least power of two >= 4 * min(longest,
    ceil(days / 4)), and 4 for empty timelines. Four buckets per depth keep
    most walks short; past days / 4 depths the table would cost more than the
    draws it serves."""
    depths = min(longest, -(-days // 4))
    return 4 << max(depths - 1, 0).bit_length()


def _scroll_depths(
    curve: np.ndarray, u: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Scroll depth of every draw of a block as a flat index into `curve`:
    r * width + #{d : curve[r, d] > u[r, t]} at [r, t], for contiguous rows of
    `curve` that are non-increasing and end in -1, in `out` (intp). `work`
    (float64) receives the curve values where the walks start; both are
    contiguous and of u's shape.

    Guide-table inversion (Chen & Asau 1974; Devroye 1986, ch. III). With G
    buckets, at_least[r, k] = #{d : curve[r, d] >= k / G}, one `bincount` of
    floor(curve * G) summed from the top. A draw u in bucket b = floor(u * G)
    has its depth between at_least[r, b + 1] and at_least[r, b]: it starts at
    the first and steps while curve[r, depth] > u, and a draw still stepping
    after `_WALK_STEPS` steps (in a crowded bucket) counts the curve values
    above u on what is left of that range, at a stride of about its square
    root and then within one stride, in passes of at most `_BLOCK_CELLS`
    (draw x depth) cells. Every step and count decides by the comparison
    curve[r, d] > u, and u * G and k / G are exact for G a power of two, so
    the depth is `length - searchsorted(curve[r, :length][::-1], u, "right")`.
    """
    rows, width = curve.shape
    days = u.shape[1]
    guide = _guide_size(width - 1, days)
    row = np.arange(rows)[:, None]
    # floor(F * G) of F in [0, 1] lies in 0..G and goes to bin key + 1; the -1
    # padding goes to bin 0, which no bucket counts.
    keys = np.maximum((curve * guide).astype(np.intp), -1)
    keys += row * (guide + 2) + 1
    counts = np.bincount(keys.ravel(), minlength=rows * (guide + 2)).reshape(rows, guide + 2)
    # The table holds flat positions in `curve`: at_least[r, k] + r * width.
    at_least = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]
    at_least += row * width
    at_least = at_least.ravel()

    # curve[r, length_r] = -1 ends every walk inside its own row. In "clip"
    # mode `take` reads each index of `at` before it writes that element, so
    # `at` holds its own indices without a buffer (all are in range).
    at = np.multiply(u, guide, out=out, casting="unsafe")
    at += row * (guide + 1)
    np.take(at_least[1:], at, out=at, mode="clip")
    flat_curve, flat_u, flat_at = curve.ravel(), u.ravel(), at.ravel()
    np.take(flat_curve, flat_at, out=work.reshape(-1), mode="clip")
    walking = np.flatnonzero(work.reshape(-1) > flat_u)
    for _ in range(_WALK_STEPS):
        flat_at[walking] += 1
        walking = walking[flat_curve[flat_at[walking]] > flat_u[walking]]
    if walking.size:
        # The depth D lies in [lo, hi]: curve[lo - 1] > u >= curve[hi]. The
        # count of curve values above u at lo + s - 1, lo + 2s - 1, ...
        # (reading curve[hi] for any position past hi) is (D - lo) // s, so a
        # count at a stride s of about sqrt(hi - lo) and one within a stride
        # give D, for about 2 sqrt(hi - lo) comparisons a draw, not hi - lo.
        v = flat_u[walking]
        lo = flat_at[walking] + 1
        hi = at_least[(v * guide).astype(np.intp) + walking // days * (guide + 1)]
        most = int((hi - lo).max())
        for stride in sorted({math.isqrt(most) or 1, 1}, reverse=True):
            span = np.arange(stride - 1, most, stride)
            per = max(1, _BLOCK_CELLS // max(len(span), 1))
            for i in range(0, len(walking), per):
                c = slice(i, i + per)
                ahead = flat_curve[np.minimum(lo[c, None] + span, hi[c, None])] > v[c, None]
                lo[c] += stride * np.count_nonzero(ahead, axis=1)
            most = stride - 1
        flat_at[walking] = lo
    return at


def _replay_group(
    layout: TimelineLayout,
    first: int,
    x: np.ndarray,
    z: np.ndarray,
    days: int,
    streams: _Substreams,
    merged: bool,
    per_cluster: np.ndarray,
    step: int,
    tile: int,
    scratch: tuple[np.ndarray, ...],
) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Replay a group of followers first, first + 1, ... whose timeline posts
    and depth offsets are the rows of x and z: the group's tables once, then
    draw blocks of `step` followers, `tile` days at a time, the days of a
    block of several followers in one tile. Yields each tile's followers (a
    slice of the instance's), its first day and its (followers x days) posts
    seen, and once the last tile is read holds the group's per-cluster means
    in the columns of `per_cluster`, which must start at zero. The skip draws
    of a follower reuse the (tile x clusters) buffers in `scratch`."""
    rows = len(x)
    # The reused generators carry one follower's streams from tile to tile.
    assert step == 1 or tile >= days, "several followers replay in one tile"
    length = z[:, -1] + x[:, -1]
    # One row stride for the curve and the depth tables: depths 0..longest + 1.
    width = int(length.max()) + 2

    # Skip-draw groups over the group's clusters, in follower then timeline
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

    # Survival F(1..longest) per follower, -1 past its length. A follower who
    # quits at d never reaches d + 1, so F is non-increasing.
    curve = np.full((rows, width), -1.0)
    curve[:, : width - 2] = survival_array(
        layout.follower_family,
        layout.rho[first : first + rows],
        layout.follower_p,
        np.arange(1, width - 1),
    )
    curve[np.arange(width) >= length[:, None]] = -1.0
    np.minimum.accumulate(curve, axis=1, out=curve)

    # Sure clusters are summed by scroll depth over (followers x depths 0..
    # longest + 1) tables: hist[r, d] counts the days follower r stops at
    # depth d, and sure_seen[r, d] counts the sure posts at depths 1..d. The
    # flat depths of `_scroll_depths` index a block's rows of both.
    on, top, end = row[sure], starts[sure], starts[sure] + counts[sure]
    bounds = np.zeros((rows, width))
    bounds[on, top + 1] += 1.0
    bounds[on, end + 1] -= 1.0
    np.cumsum(bounds, axis=1, out=bounds)
    sure_seen = np.cumsum(bounds, axis=1, out=bounds).ravel()
    hist = np.zeros(rows * width, np.intp)
    cluster_first = np.searchsorted(row, np.arange(rows + 1))

    quit_rng, skip_rng = streams.generators
    draws, seen, kept_buf, ones, uniforms, depths, work = scratch
    for b0 in range(0, rows, step):
        b1 = min(b0 + step, rows)
        block = slice(b0 * width, b1 * width)
        # Each follower's stream starts are read once, in the order of a
        # replay one follower at a time, and set on the reused generator of
        # their part just before the follower's first tile draws; every later
        # tile reads on from where the last one stopped, so the streams are
        # those of drawing all days at once.
        quit_starts, skip_starts = [], {}
        for r in range(b0, b1):
            quit_starts.append(streams.start(first + r, 0))
            if drawing[r]:
                skip_starts[r] = streams.start(first + r, 1)
        for t0 in range(0, days, tile):
            t_days = min(tile, days - t0)
            # The (followers x days) arrays live in the call's buffers: the day
            # sums take the place of the uniforms once they are read.
            shape = (b1 - b0, t_days)
            cells = shape[0] * t_days
            u = uniforms[:cells].reshape(shape)
            for i, start in enumerate(quit_starts):
                if t0 == 0:
                    quit_rng.bit_generator.state = start
                quit_rng.random(out=u[i])
            depth = _scroll_depths(
                curve[b0:b1], u, depths[:cells].reshape(shape), work[:cells].reshape(shape)
            )
            hist[block] += np.bincount(depth.ravel(), minlength=(b1 - b0) * width)
            day_sum = np.take(sure_seen[block], depth, out=u, mode="clip")

            for r, start in skip_starts.items():
                if t0 == 0:
                    skip_rng.bit_generator.state = start
                c = slice(cluster_first[r], cluster_first[r + 1])
                grp = group[c] - group[c.start]
                mine = np.flatnonzero(drawn[c])
                # The whole (tile x groups) block is drawn, so the stream is
                # the same whichever clusters and days read it, even none.
                # Every index is in range, and mode="clip" spares `take` the
                # check that buffers its output.
                m, g = len(mine), int(grp[-1]) + 1
                u_skip = skip_rng.random(out=draws[: t_days * g].reshape(t_days, g))
                # Only a day that scrolls past the top of the shallowest drawn
                # cluster, the first in timeline order, can see a drawn post.
                # When most days reach, all are read through a view; else the
                # reaching days' draws are copied after the seen_m rows in
                # `seen`, which holds both since n <= t_days / 2 and m <= g <=
                # k.
                at = depth[r - b0] - (r - b0) * width
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
                day_sum[r - b0, read] += seen_m @ ones[:m]
            yield slice(first + b0, first + b1), t0, day_sum

    # reached[r, d] adds up the days that reach each of the depths 1..d, in
    # place of the histogram.
    reached = hist.reshape(rows, width)
    np.cumsum(reached[:, ::-1], axis=1, out=reached[:, ::-1])
    np.cumsum(reached, axis=1, out=reached)
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
    # Groups of `members` followers keep their (followers x depths) tables
    # within _BLOCK_CELLS cells, and their draw blocks of `step` followers
    # keep their (followers x days) draws and (followers x guide buckets)
    # table within as many; a follower whose days alone exceed it replays
    # them in tiles of that many.
    longest = int((offsets[:, -1] + posts[:, -1]).max())
    members = max(1, _BLOCK_CELLS // (longest + 2))
    step = max(1, _BLOCK_CELLS // max(days, _guide_size(longest + 1, days)))
    tile = min(days, _BLOCK_CELLS)
    streams = _Substreams(seed, n)
    # Every timeline holds the schedule's k non-empty slots as k clusters, so
    # these (tile x k) scratch buffers serve every follower; the (followers x
    # tile) uniforms, depths and walk starts of every block share three more.
    # Held for the call, they spare the allocator a cycle of large blocks that
    # glibc may return to the system and fault in again, block after block.
    k = np.count_nonzero(schedule.posts)
    cells = min(step, members, n) * tile
    scratch = (
        np.empty(tile * k), np.empty(tile * k), np.empty(tile * k, dtype=bool),
        np.ones(max(tile, k)), np.empty(cells), np.empty(cells, np.intp), np.empty(cells),
    )
    for first in range(0, n, members):
        g = slice(first, first + members)
        for block, t0, day_sum in _replay_group(
            layout, first, posts[g], offsets[g], days, streams, merged,
            per_cluster[:, g], step, tile, scratch,
        ):
            # Weighted day sums add up in follower order, as one follower at a
            # time adds them, so the totals keep their bits.
            day_sum *= layout.gamma[block, None]
            for weighted in day_sum:
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
