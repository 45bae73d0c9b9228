#!/usr/bin/env python3
"""Single-layer timings at the sizes quoted as baselines in ROADMAP.md.

    python3 perfbench/baselines.py

Inputs come from the benchmark's seeded generators (seed 0). Each case is
timed around one library call, after one warm-up call where the case is short
enough to repeat; greedy at 10k followers runs once. Takes about two minutes on
two cores. Prints one row per case and the machine it ran on.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from feedsched import formats  # noqa: E402
from feedsched.analyze import reconstruct_timeline  # noqa: E402
from feedsched.estimate import build_instance  # noqa: E402
from feedsched.model import Schedule  # noqa: E402
from feedsched.objective import attention_total  # noqa: E402
from feedsched.optimize import brute_force, marginal_allocation  # noqa: E402
from feedsched.simulate import simulate  # noqa: E402
from perfbench import generators as gen  # noqa: E402


def timed(fn, repeats: int = 1):
    """(median seconds over `repeats` calls after one warm-up, last result)."""
    result = fn() if repeats > 1 else None
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def main() -> int:
    work = ROOT / ".perfbench_work" / "baselines"
    work.mkdir(parents=True, exist_ok=True)
    rows = []

    big = formats.instance_from_dict(gen.instance_dict(0, followers=10_000))
    ones = Schedule((1,) * big.slots)
    s, _ = timed(lambda: attention_total(ones, big), repeats=5)
    rows.append(("attention_total, 10k followers, S=24", s, ""))
    s, rep = timed(lambda: marginal_allocation(big))
    rows.append(("greedy, 10k followers, S=24, B=24", s, f"{rep.evaluations} evaluations"))
    s, _ = timed(lambda: simulate(rep.schedule, big, 1000, 0))
    rows.append(("simulate, 10k followers x 1000 days", s, ""))

    small = formats.instance_from_dict(
        gen.instance_dict(0, followers=200, slots=6, budget=10))
    s, rep = timed(lambda: brute_force(small))
    rows.append(("brute_force, 200 followers, S=6, B=10", s, f"{rep.evaluations} schedules"))

    events, edges = gen.trace_and_graph(0, followers=1000, competitors=700)
    gen.write_trace(work / "trace.jsonl", events)
    gen.write_graph(work / "graph.csv", edges)
    trace = formats.load_trace(work / "trace.jsonl")
    graph = formats.load_graph(work / "graph.csv")
    s, inst = timed(lambda: build_instance(gen.PRODUCER, graph, trace, 24, 24))
    rows.append((f"build_instance, {len(inst.followers)} followers / {len(trace)} events", s, ""))
    users = graph.followers_of(gen.PRODUCER)[:200]
    s, _ = timed(lambda: [reconstruct_timeline(u, graph, trace) for u in users])
    rows.append((f"{len(users)} timeline reconstructions, same trace", s, ""))

    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, "
          f"python {platform.python_version()}, {platform.machine()}")
    for name, seconds, note in rows:
        print(f"{name:<52}{seconds:>10.3f} s  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
