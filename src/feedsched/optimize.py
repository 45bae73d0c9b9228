"""Schedule construction: greedy marginal allocation, exhaustive search for
small instances, popular heuristic generators, and seeded multistart."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ProblemInstance, Schedule, _left_sum
from .objective import TimelineLayout, attention_total

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "OptimizationReport",
    "marginal_allocation",
    "brute_force",
    "heuristic",
    "multistart",
    "window_slots",
]

DEFAULT_ENUMERATION_CAP = 20_000_000

# Exhaustive search builds and scores candidates in chunks of about this many
# post counts (0.5 MB of int64), and bounds its enumeration blocks' fit masks
# and the attention table's follower blocks by the same number of cells.
CHUNK_ELEMENTS = 1 << 16

HEURISTICS = ("uniform", "peak", "graveyard", "smart")

DEFAULT_NIGHT_HOURS = (23, 6)
DEFAULT_LUNCH_HOURS = (12, 13)


class EnumerationCapError(RuntimeError):
    """Raised when exhaustive search would exceed the configured cap."""


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one optimization run.

    trajectory holds (slot, gain) per accepted greedy step; terminated_by is
    "no-gain" or "budget" for greedy runs and "exhausted" for full enumeration.
    """

    schedule: Schedule
    total: float
    trajectory: tuple[tuple[int, float], ...]
    evaluations: int
    terminated_by: str


def marginal_allocation(
    instance: ProblemInstance, initial: Schedule | None = None
) -> OptimizationReport:
    """Greedy hill climb: repeatedly add one post to the slot with the largest
    objective gain, stopping when no slot improves or the budget is spent.

    Ties in the argmax break toward the lowest slot index. Only strictly
    positive gains are accepted. Each scan takes all slot gains at once from
    `TimelineLayout.greedy_gains`, which decides as `slot_gains` scores, and
    counts as one evaluation per slot, after one for the starting point; the
    reported total is a full evaluation of the final schedule.
    """
    slots, budget = instance.slots, instance.budget
    current = initial if initial is not None else Schedule.zeros(slots)
    if len(current.posts) != slots:
        raise ValueError(
            f"initial schedule has {len(current.posts)} slots, expected {slots}"
        )
    if current.spend > budget:
        raise ValueError(
            f"initial schedule spends {current.spend}, exceeding the budget {budget}"
        )
    scans = TimelineLayout.of(instance).greedy_gains(current.posts)
    posts = np.array(current.posts, dtype=np.int64)
    evaluations = 1
    trajectory: list[tuple[int, float]] = []
    best = None
    while True:
        if posts.sum() >= budget:
            terminated_by = "budget"
            break
        gains = scans.send(best)
        evaluations += slots
        best = int(np.argmax(gains))
        if not gains[best] > 0.0:
            terminated_by = "no-gain"
            break
        posts[best] += 1
        trajectory.append((best, float(gains[best])))
    scans.close()  # frees the carried arrays before the final evaluation
    current = Schedule(tuple(posts.tolist()))
    return OptimizationReport(
        current,
        attention_total(current, instance),
        tuple(trajectory),
        evaluations,
        terminated_by,
    )


def _fit_rows(spend: np.ndarray, leftover: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each leftover budget in turn, the rows whose spend fits it, in
    ascending order, concatenated; and how many rows fit each. These are the
    column indices of np.nonzero(spend <= leftover[:, None]), found in one
    flat pass."""
    mask = spend <= leftover[:, None]
    count = mask.sum(axis=1)
    rows = np.flatnonzero(mask)
    rows -= np.repeat(np.arange(0, mask.size, len(spend)), count)
    return rows, count


def _lex_block(slots: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Every post vector of `slots` slots with spend <= budget, in
    lexicographic order, as a slot-major (slots x n) array, and their spends.

    Built last slot first: each value p of the new first slot is followed by
    the rows of the shorter block whose spend fits budget - p, in that block's
    order, so the order stays lexicographic.
    """
    block = np.zeros((0, 1), dtype=np.int64)
    spend = np.zeros(1, dtype=np.int64)
    values = np.arange(budget + 1)
    for _ in range(slots):
        rows, count = _fit_rows(spend, budget - values)
        longer = np.empty((len(block) + 1, len(rows)), dtype=np.int64)
        longer[0] = np.repeat(values, count)
        for s, posts in enumerate(block, 1):
            longer[s] = posts[rows]
        spend = longer[0] + spend[rows]
        block = longer
    return block, spend


def _lex_chunks(slots: int, budget: int, rows: int):
    """Every post vector with spend <= budget, in lexicographic order, in
    chunks of `rows` schedules (fewer in the last): (k x slots) views of
    slot-major (slots x k) arrays.

    The slots are cut into levels of `_lex_block`s, each of as many slots as
    keep its fit mask within CHUNK_ELEMENTS cells, with the remainder in the
    first level. The first level's block is cut into chunks, and each further
    level follows every head of the chunks so far by the rows of its block
    that fit the head's leftover budget. Each level holds one chunk at a time,
    so memory does not grow with the candidate count.
    """
    tail = 1
    while tail < slots and (budget + 1) * math.comb(budget + tail + 1, tail + 1) <= CHUNK_ELEMENTS:
        tail += 1
    block, spend = _lex_block(tail, budget)
    lead = slots - tail * ((slots - 1) // tail)
    first = block if lead == tail else _lex_block(lead, budget)[0]
    chunks = (first[:, lo : lo + rows].T for lo in range(0, first.shape[1], rows))
    for joined in range(lead + tail, slots + 1, tail):
        chunks = _extend(chunks, block, spend, budget, rows, joined)
    return chunks


def _extend(chunks, block: np.ndarray, spend: np.ndarray, budget: int, rows: int, slots: int):
    """Follow each head of `chunks`, in order, by the rows of `block` (of the
    last slots) whose spend fits the head's leftover budget, and cut the
    result into chunks of `rows` schedules of `slots` slots, as `_lex_chunks`
    yields them."""
    # the block rows that fit a leftover budget r are fit[start[r] : start[r] + fits[r]]
    fit, fits = _fit_rows(spend, np.arange(budget + 1))
    start = fits.cumsum() - fits
    lead = slots - block.shape[0]
    remaining = math.comb(budget + slots, slots)
    out, filled = np.empty((slots, min(rows, remaining)), dtype=np.int64), 0
    for heads in chunks:
        heads = heads.T
        left = budget - heads.sum(axis=0)
        # the schedules that follow head h are numbered ends[h] - fits[left[h]]
        # up to ends[h] - 1; adding shift[h] to a number gives its place in fit
        ends = fits[left].cumsum()
        shift = start[left] + fits[left] - ends
        done = 0
        while done < ends[-1]:
            k = min(out.shape[1] - filled, int(ends[-1]) - done)
            lo, hi = np.searchsorted(ends, (done, done + k - 1), side="right")
            cut = np.minimum(ends[lo : hi + 1], done + k)
            head = np.repeat(np.arange(lo, hi + 1), np.diff(cut, prepend=done))
            number = np.arange(done, done + k)
            row = fit[number + shift[head]]
            # one gather per slot; a 2-D take along axis 1 took twice as long
            part = out[:, filled : filled + k]
            for target, posts in zip(part[:lead], heads):
                target[...] = posts[head]
            for target, posts in zip(part[lead:], block):
                target[...] = posts[row]
            done += k
            filled += k
            if filled == out.shape[1]:
                yield out.T
                remaining -= filled
                if remaining:
                    out, filled = np.empty((slots, min(rows, remaining)), dtype=np.int64), 0


def _chunk_totals(chunk: np.ndarray, order: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Ranking total of each schedule of a (k x slots) chunk, read off
    `TimelineLayout.attention_table`: table[g, i, P, x] added group by group
    and, within a group, down its timeline order, where x is the posts at
    timeline position i and P the posts above it. Each group and position is
    one gather over the chunk's candidates, so nothing larger than the chunk
    is built."""
    posts = chunk.T  # slot-major: each slot's posts over the candidates
    slots, width = order.shape[1], table.shape[-1]
    cells = table.reshape(-1)
    # flat index of table[g, i, P, x] is (g * slots + i) * width**2 + P * width + x;
    # moving down one position adds width**2 + x * width
    step = posts * width
    step += width * width
    totals = np.zeros(posts.shape[1])
    offset = np.empty(posts.shape[1], dtype=np.int64)
    index = np.empty_like(offset)
    for g, timeline in enumerate(order.tolist()):
        offset.fill(g * slots * width * width)
        for slot in timeline:
            np.add(offset, posts[slot], out=index)
            totals += cells[index]
            offset += step[slot]
    return totals


def brute_force(
    instance: ProblemInstance, cap: int = DEFAULT_ENUMERATION_CAP
) -> OptimizationReport:
    """Exact optimum by full enumeration; ties keep the lexicographically
    smallest schedule. Refuses instances whose candidate count exceeds `cap`.

    Candidates stream from `_lex_chunks` in lexicographic, slot-major chunks
    of CHUNK_ELEMENTS // slots schedules; neither the candidate set nor its
    leading slots are ever held in memory. `_chunk_totals` ranks each chunk
    from `TimelineLayout.attention_table`, one gather per login group and
    timeline position over the whole chunk, with no survival evaluation per
    candidate. The reported total is a full evaluation of the best schedule.
    """
    slots, budget = instance.slots, instance.budget
    n_candidates = math.comb(budget + slots, slots)
    if n_candidates > cap:
        raise EnumerationCapError(
            f"enumeration would visit {n_candidates} schedules, "
            f"exceeding the cap of {cap}"
        )
    order, table = TimelineLayout.of(instance).attention_table(budget, CHUNK_ELEMENTS)
    best_posts: list[int] | None = None
    best_total = -math.inf
    evaluations = 0
    for chunk in _lex_chunks(slots, budget, max(1, CHUNK_ELEMENTS // slots)):
        totals = _chunk_totals(chunk, order, table)
        i = int(np.argmax(totals))  # the first maximum is the smallest schedule
        if totals[i] > best_total:
            best_posts, best_total = chunk[i].tolist(), totals[i]
        evaluations += len(chunk)
    assert best_posts is not None
    best = Schedule(tuple(best_posts))
    return OptimizationReport(
        best, attention_total(best, instance), (), evaluations, "exhausted"
    )


def window_slots(first_hour: int, last_hour: int, slots: int) -> list[int]:
    """Slot indices that overlap an inclusive, wrapping hour window, in hour order."""
    hours = ((first_hour + k) % 24 for k in range((last_hour - first_hour) % 24 + 1))
    covered = (range(h * slots // 24, ((h + 1) * slots - 1) // 24 + 1) for h in hours)
    return list(dict.fromkeys(itertools.chain.from_iterable(covered)))


def _apportion(n: int, weights: list[float], order) -> Schedule:
    """n posts in proportion to `weights` by largest remainder: each slot gets
    the floor of its quota, and the posts left over go to the largest
    remainders, ties to the slot that comes first in `order`."""
    total = _left_sum(weights) or 1.0  # all-zero weights only come with n = 0
    quotas = [n * w / total for w in weights]
    posts = [int(q) for q in quotas]
    for s in sorted(order, key=lambda s: posts[s] - quotas[s])[: n - sum(posts)]:
        posts[s] += 1
    return Schedule(tuple(posts))


def heuristic(
    kind: str,
    instance: ProblemInstance,
    n: int,
    activity=None,
    *,
    night_hours: tuple[int, int] = DEFAULT_NIGHT_HOURS,
    lunch_hours: tuple[int, int] = DEFAULT_LUNCH_HOURS,
) -> Schedule:
    """Popular scheduling recipes, each n posts apportioned by largest
    remainder over a weight vector.

    uniform   -- equal weights on all slots, remainder to the lowest indices
    peak      -- the given per-slot activity weights, ties to the lowest index
    graveyard -- equal weights on the late-night window, remainder in hour order
    smart     -- equal weights on the lunch window, then the night window
    """
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}; expected one of {HEURISTICS}")
    slots = instance.slots
    if not 0 <= n <= instance.budget:
        raise ValueError(f"spend {n} must lie in [0, budget={instance.budget}]")
    if kind == "peak":
        if activity is None:
            raise ValueError("the peak heuristic requires per-slot activity weights")
        weights = [float(a) for a in activity]
        if len(weights) != slots:
            raise ValueError(
                f"activity weights have length {len(weights)}, expected {slots}"
            )
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("activity weights must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("activity weights must be >= 0")
        total = _left_sum(weights)
        if n > 0 and total <= 0:
            raise ValueError("activity weights must not all be zero")
        if not math.isfinite(n * total):
            raise ValueError(f"activity weights are too large: {n} times their sum overflows")
        return _apportion(n, weights, range(slots))
    if kind == "uniform":
        window = range(slots)
    else:
        window = window_slots(*night_hours, slots)
        if kind == "smart":
            window = list(dict.fromkeys(window_slots(*lunch_hours, slots) + window))
    return _apportion(n, [float(s in window) for s in range(slots)], window)


def multistart(instance: ProblemInstance, restarts: int, seed: int) -> OptimizationReport:
    """Best of several greedy runs: one from the zero schedule plus seeded
    random feasible starting points. Deterministic for a fixed seed; the
    reported evaluation count covers all restarts."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    slots, budget = instance.slots, instance.budget
    best: OptimizationReport | None = None
    evaluations = 0
    for r in range(restarts):
        if r == 0:
            initial = Schedule.zeros(slots)
        else:
            spend = int(rng.integers(0, budget + 1))
            counts = rng.multinomial(spend, [1.0 / slots] * slots)
            initial = Schedule(tuple(int(c) for c in counts))
        report = marginal_allocation(instance, initial)
        evaluations += report.evaluations
        if best is None or report.total > best.total:
            best = report
    assert best is not None
    return replace(best, evaluations=evaluations)
