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

# Exhaustive search scores candidates in chunks sized so that one temporary
# array holds about this many float64 values (0.5 MB).
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


def _lex_chunks(slots: int, budget: int, rows: int):
    """Every post vector with spend <= budget, in lexicographic order, as
    (k x slots) arrays of at most `rows` schedules.

    Stars and bars: `slots` bars among `budget + slots` cells leave the posts
    of each slot as the empty cells before its bar, and bar positions in
    ascending lexicographic order give post vectors in the same order.
    """
    bars = itertools.combinations(range(budget + slots), slots)
    while chunk := list(itertools.islice(bars, rows)):
        yield np.diff(np.array(chunk, dtype=np.int64), axis=1, prepend=-1) - 1


def brute_force(
    instance: ProblemInstance, cap: int = DEFAULT_ENUMERATION_CAP
) -> OptimizationReport:
    """Exact optimum by full enumeration; ties keep the lexicographically
    smallest schedule. Refuses instances whose candidate count exceeds `cap`.

    Candidates stream in lexicographic chunks; the whole candidate set is
    never held in memory. Each candidate is ranked by gathering one entry of
    `TimelineLayout.attention_table` per login group and timeline position,
    with no survival evaluation per candidate. The reported total is a full
    evaluation of the best schedule.
    """
    slots, budget = instance.slots, instance.budget
    n_candidates = math.comb(budget + slots, slots)
    if n_candidates > cap:
        raise EnumerationCapError(
            f"enumeration would visit {n_candidates} schedules, "
            f"exceeding the cap of {cap}"
        )
    order, table = TimelineLayout.of(instance).attention_table(budget, CHUNK_ELEMENTS)
    width = budget + 1
    # flat index of table[g, i, 0, 0] for each group g and timeline position i
    base = np.arange(order.size).reshape(order.shape) * width * width
    table = table.ravel()
    rows = max(1, CHUNK_ELEMENTS // max(1, order.size))
    best_posts: np.ndarray | None = None
    best_total = -math.inf
    evaluations = 0
    for chunk in _lex_chunks(slots, budget, rows):
        x = chunk[:, order]  # (K x groups x slots) posts in timeline order
        # flat index of table[g, i, P, x], built in place to keep one temporary;
        # P = cumsum(x) - x is the producer posts above each cluster
        index = np.cumsum(x, axis=-1)
        index -= x
        index *= width
        index += x
        index += base
        totals = table[index].sum(axis=(1, 2))
        i = int(np.argmax(totals))  # the first maximum is the smallest schedule
        if totals[i] > best_total:
            best_posts, best_total = chunk[i], totals[i]
        evaluations += len(chunk)
    assert best_posts is not None
    best = Schedule(tuple(best_posts.tolist()))
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
