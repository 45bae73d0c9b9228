"""Schedule construction: greedy marginal allocation, exhaustive search for
small instances, popular heuristic generators, and seeded multistart."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ProblemInstance, Schedule
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
    instance: ProblemInstance,
    initial: Schedule | None = None,
    *,
    layout: TimelineLayout | None = None,
) -> OptimizationReport:
    """Greedy hill climb: repeatedly add one post to the slot with the largest
    objective gain, stopping when no slot improves or the budget is spent.

    Ties in the argmax break toward the lowest slot index. Only strictly
    positive gains are accepted. Each scan takes all slot gains at once from
    `TimelineLayout.slot_gains` and counts as one evaluation per slot, after
    one for the starting point; the reported total is a full evaluation of
    the final schedule. Pass `layout` to reuse one built for `instance`.
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
    if layout is None:
        layout = TimelineLayout(instance)
    posts = np.array(current.posts, dtype=np.int64)
    evaluations = 1
    trajectory: list[tuple[int, float]] = []
    while True:
        if posts.sum() >= budget:
            terminated_by = "budget"
            break
        gains = layout.slot_gains(posts)
        evaluations += slots
        best = int(np.argmax(gains))
        if not gains[best] > 0.0:
            terminated_by = "no-gain"
            break
        posts[best] += 1
        trajectory.append((best, float(gains[best])))
    current = Schedule(tuple(posts.tolist()))
    return OptimizationReport(
        current,
        attention_total(current, instance),
        tuple(trajectory),
        evaluations,
        terminated_by,
    )


def _lex_schedules(slots: int, budget: int):
    """All post vectors with spend <= budget, as tuples in lexicographic order."""
    posts, spend = [0] * slots, 0
    while True:
        yield tuple(posts)
        if spend < budget:
            posts[-1] += 1
            spend += 1
            continue
        # Budget spent: empty the last non-empty slot and carry into the one before.
        j = slots - 1
        while j >= 0 and posts[j] == 0:
            j -= 1
        if j <= 0:
            return
        spend -= posts[j] - 1
        posts[j] = 0
        posts[j - 1] += 1


def _lex_chunks(slots: int, budget: int, rows: int):
    """`_lex_schedules` as (k x slots) arrays of at most `rows` schedules."""
    schedules = _lex_schedules(slots, budget)
    while chunk := list(itertools.islice(schedules, rows)):
        yield np.array(chunk, dtype=np.int64).reshape(len(chunk), slots)


def brute_force(
    instance: ProblemInstance, cap: int = DEFAULT_ENUMERATION_CAP
) -> OptimizationReport:
    """Exact optimum by full enumeration; ties keep the lexicographically
    smallest schedule. Refuses instances whose candidate count exceeds `cap`.

    Candidates stream in lexicographic chunks, each ranked as one (K x slots)
    matrix on the layout; the whole candidate set is never held in memory.
    The reported total is a full evaluation of the best schedule.
    """
    slots, budget = instance.slots, instance.budget
    n_candidates = math.comb(budget + slots, slots)
    if n_candidates > cap:
        raise EnumerationCapError(
            f"enumeration would visit {n_candidates} schedules, "
            f"exceeding the cap of {cap}"
        )
    layout = TimelineLayout(instance)
    # Non-geometric follower families sum over up to `budget` posts per cluster.
    depth = 1 if instance.follower_survival_family == "geometric" else max(budget, 1)
    rows = max(1, CHUNK_ELEMENTS // max(1, len(instance.followers) * slots * depth))
    best_posts: np.ndarray | None = None
    best_total = -math.inf
    evaluations = 0
    for chunk in _lex_chunks(slots, budget, rows):
        totals = layout.totals(chunk)
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
    """Slot indices covered by an inclusive, wrapping hour window."""
    hours = []
    h = first_hour % 24
    while True:
        hours.append(h)
        if h == last_hour % 24:
            break
        h = (h + 1) % 24
    out: list[int] = []
    for h in hours:
        s = h * slots // 24
        if s not in out:
            out.append(s)
    return out


def _spread(n: int, window: list[int], slots: int) -> Schedule:
    base, rem = divmod(n, len(window))
    posts = [0] * slots
    for k, s in enumerate(window):
        posts[s] = base + (1 if k < rem else 0)
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
    """Popular scheduling recipes.

    uniform   -- even spread across all slots, remainder to the lowest indices
    peak      -- n posts proportional to the given per-slot activity weights
                 (largest-remainder rounding)
    graveyard -- even spread across the late-night window
    smart     -- even spread across the lunch window plus the night window
    """
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}; expected one of {HEURISTICS}")
    slots = instance.slots
    if not 0 <= n <= instance.budget:
        raise ValueError(f"spend {n} must lie in [0, budget={instance.budget}]")
    if kind == "uniform":
        base, rem = divmod(n, slots)
        return Schedule(tuple(base + (1 if s < rem else 0) for s in range(slots)))
    if kind == "peak":
        if activity is None:
            raise ValueError("the peak heuristic requires per-slot activity weights")
        weights = [float(a) for a in activity]
        if len(weights) != slots:
            raise ValueError(
                f"activity weights have length {len(weights)}, expected {slots}"
            )
        if any(w < 0 for w in weights):
            raise ValueError("activity weights must be >= 0")
        total_w = sum(weights)
        if n > 0 and total_w <= 0:
            raise ValueError("activity weights must not all be zero")
        posts = [0] * slots
        if n > 0:
            quotas = [n * w / total_w for w in weights]
            posts = [int(q) for q in quotas]
            leftovers = sorted(
                range(slots), key=lambda s: (-(quotas[s] - posts[s]), s)
            )
            for s in leftovers[: n - sum(posts)]:
                posts[s] += 1
        return Schedule(tuple(posts))
    night = window_slots(*night_hours, slots)
    if kind == "graveyard":
        return _spread(n, night, slots)
    lunch = window_slots(*lunch_hours, slots)
    combined = lunch + [s for s in night if s not in lunch]
    return _spread(n, combined, slots)


def multistart(instance: ProblemInstance, restarts: int, seed: int) -> OptimizationReport:
    """Best of several greedy runs: one from the zero schedule plus seeded
    random feasible starting points. Deterministic for a fixed seed; the
    reported evaluation count covers all restarts."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    slots, budget = instance.slots, instance.budget
    layout = TimelineLayout(instance)
    best: OptimizationReport | None = None
    evaluations = 0
    for r in range(restarts):
        if r == 0:
            initial = Schedule.zeros(slots)
        else:
            spend = int(rng.integers(0, budget + 1))
            counts = rng.multinomial(spend, [1.0 / slots] * slots)
            initial = Schedule(tuple(int(c) for c in counts))
        report = marginal_allocation(instance, initial, layout=layout)
        evaluations += report.evaluations
        if best is None or report.total > best.total:
            best = report
    assert best is not None
    return replace(best, evaluations=evaluations)
