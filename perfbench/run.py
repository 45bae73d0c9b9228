#!/usr/bin/env python3
"""Benchmark of the feedsched pipeline, driven through `feedsched.cli.main`.

One closed-loop caller in one process, no threads: each command starts only
after the previous one returned. A run generates a workload's seeded inputs,
then repeats the workload's command sequence (a "pass") until `--seconds` have
elapsed, checks every command's output, and prints one JSON object as the last
line of standard output.

    python3 perfbench/run.py --workload plan --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --report            # every workload, one row each

`--trace 0` reports the end-to-end metrics from untraced passes. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics; its
spans are written to `.perfbench_work/` in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"

SETUP_REPEATS = 5
Z_LIMIT = 5.0  # largest |z| accepted between simulate and the analytic total
REL_TOL = 1e-9
COMMANDS = ("estimate", "optimize", "evaluate", "simulate", "analyze")

# Times of a pass are also reported in reference units: the pass's seconds
# divided by the seconds of `reference_work` timed next to it in the same run.
# The shared machines this runs on change speed by up to a third over minutes;
# the ratio cancels most of that, raw seconds do not (see README.md).
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "optimize_ref": "ref",
    "simulate_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "wall_s": "s",
    "optimize_s": "s",
    "simulate_s": "s",
    "reference_s": "s",
    "estimate_s": "s",
    "evaluate_s": "s",
    "analyze_s": "s",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "formats.load_trace_s": "s",
    "formats.load_graph_s": "s",
    "formats.trace_events": "count",
    "formats.instance_load_s": "s",
    "estimate.build_instance_s": "s",
    "estimate.consumption_depth_mu_s": "s",
    "estimate.aggregate_competitors_s": "s",
    "estimate.followers": "count",
    "objective.attention_total_calls": "count",
    "objective.attention_total_s": "s",
    "objective.attention_total_us_per_follower": "us",
    "objective.attention_potential_s": "s",
    "objective.heatmap_s": "s",
    "objective.timeline_view_s": "s",
    "model.survival_calls": "count",
    "optimize.marginal_allocation_s": "s",
    "optimize.evaluations": "count",
    "optimize.greedy_step_s": "s",
    "optimize.self_s": "s",
    "optimize.steps_per_evaluation": "ratio",
    "optimize.brute_force_s": "s",
    "optimize.brute_schedules_per_s": "1/s",
    "optimize.multistart_s": "s",
    "simulate.simulate_s": "s",
    "simulate.follower_days_per_s": "1/s",
    "simulate.rounded_check_s": "s",
    "analyze.reconstruct_timeline_s": "s",
    "analyze.extract_clusters_s": "s",
    "analyze.timeline_posts": "count",
    "analyze.clusters": "count",
    "analyze.posts_per_s": "1/s",
    "analyze.counts_s": "s",
    "analyze.permutation_test_s": "s",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
}

# Answers compared against the stored fingerprint and across passes.
FINGERPRINT_FIELDS = {
    "estimate": ("followers", "mean_rho", "mean_delta", "total_competitor_load"),
    "optimize": ("posts", "evaluations", "terminated_by", "total"),
    "evaluate": ("total",),
    "simulate": ("empirical_total", "standard_error", "analytic_total_rounded"),
    "analyze": ("cluster_stats", "t_obs", "p_values", "powerlaw_alpha"),
}

# Sizes per scale; "tiny" exists so the benchmark's own test runs in seconds.
SIZES = {
    "full": {
        "pipeline": {"followers": 250, "competitors": 120, "followees": 12, "days": 30},
        "plan": {"followers": 1000, "slots": 24, "budget": 24},
        "exact": {"followers": 16, "slots": 6, "budget": 10},
        "pipeline_budget": 24,
        "greedy_days": 2000,
        "exact_days": 100000,
        "restarts": 8,
    },
    "tiny": {
        "pipeline": {"followers": 20, "competitors": 10, "followees": 4, "days": 5},
        "plan": {"followers": 30, "slots": 24, "budget": 6},
        "exact": {"followers": 4, "slots": 4, "budget": 4},
        "pipeline_budget": 6,
        "greedy_days": 200,
        "exact_days": 500,
        "restarts": 3,
    },
}

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = ("pipeline", "plan", "exact")


def reference_work() -> float:
    """Fixed float arithmetic that touches no feedsched code and allocates no
    container objects, so its time follows the machine's speed and not the
    heap or garbage-collector state this process is in. About 0.2 s on a
    2-core VM."""
    acc = 0.0
    for i in range(1_200_000):
        acc += 0.93 ** ((i % 13) * 0.5)
    return acc


@dataclass
class Step:
    label: str
    command: str
    argv: list[str]


@dataclass
class Inputs:
    """A workload's files, command sequence and generator-derived expectations."""

    dir: Path
    steps: list[Step]
    expect: dict = field(default_factory=dict)


@dataclass
class OpResult:
    step: Step
    seconds: float
    report: dict | None
    problems: list[str]


# ------------------------------------------------------------------ workloads


def make_inputs(workload: str, seed: int, scale: str, out: Path) -> Inputs:
    """Generate and write one workload's inputs; return its command sequence."""
    from perfbench import generators as gen

    size = SIZES[scale]
    out.mkdir(parents=True, exist_ok=True)
    p = {name: str(out / name) for name in (
        "trace.jsonl", "graph.csv", "instance.json", "schedule.json",
        "multistart.json", "heatmap.csv", "breakdown.csv", "analysis",
    )}
    json_flag = ["--json"]
    evaluate = Step("evaluate", "evaluate", [
        "evaluate", p["instance.json"], p["schedule.json"],
        "--heatmap", p["heatmap.csv"], "--breakdown", p["breakdown.csv"]] + json_flag)
    greedy = Step("optimize", "optimize", [
        "optimize", p["instance.json"], "-o", p["schedule.json"],
        "--method", "marginal"] + json_flag)
    sim_greedy = Step("simulate", "simulate", [
        "simulate", p["instance.json"], p["schedule.json"],
        "--days", str(size["greedy_days"]), "--seed", "0"] + json_flag)

    if workload == "pipeline":
        events, edges = gen.trace_and_graph(seed, **size["pipeline"])
        gen.write_trace(p["trace.jsonl"], events)
        gen.write_graph(p["graph.csv"], edges)
        per_user = defaultdict(int)
        for ev in events:
            per_user[ev["user"]] += 1
        steps = [
            Step("estimate", "estimate", [
                "estimate", p["trace.jsonl"], p["graph.csv"], gen.PRODUCER,
                "-o", p["instance.json"], "--budget", str(size["pipeline_budget"])]
                + json_flag),
            greedy, evaluate, sim_greedy,
            Step("analyze", "analyze", [
                "analyze", p["trace.jsonl"], p["graph.csv"], "--all",
                "-o", p["analysis"]] + json_flag),
        ]
        expect = {
            "followers": sum(1 for _, a in edges if a == gen.PRODUCER),
            "timeline_posts": sum(per_user[a] for _, a in edges),
        }
        return Inputs(out, steps, expect)

    if workload == "plan":
        gen.write_json(p["instance.json"], gen.instance_dict(seed, **size["plan"]))
        return Inputs(out, [greedy, evaluate, sim_greedy])

    gen.write_json(p["instance.json"], gen.instance_dict(
        seed, **size["exact"],
        follower_survival_family="weibull", follower_survival_p=1.5,
        cluster_survival_family="loglogistic", cluster_survival_p=2.0))
    steps = [
        Step("optimize-brute", "optimize", [
            "optimize", p["instance.json"], "-o", p["schedule.json"],
            "--method", "brute"] + json_flag),
        Step("optimize-multistart", "optimize", [
            "optimize", p["instance.json"], "-o", p["multistart.json"],
            "--method", "multistart", "--restarts", str(size["restarts"]),
            "--seed", "1"] + json_flag),
        Step("simulate", "simulate", [
            "simulate", p["instance.json"], p["schedule.json"],
            "--days", str(size["exact_days"]), "--seed", "0"] + json_flag),
    ]
    return Inputs(out, steps)


# ------------------------------------------------------------------ checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _finite_instance(path: Path) -> tuple[int, bool]:
    obj = json.loads(Path(path).read_text())
    values = [
        v
        for f in obj["followers"]
        for v in (f["rho"], f["delta"], f["gamma"], *f["competitor_load"])
    ]
    return len(obj["followers"]), all(math.isfinite(v) for v in values)


def check_pass(ops: dict[str, OpResult], inputs: Inputs, greedy_total: float | None,
               traced_posts: int | None) -> None:
    """Append output-check failures to the problems of the operation at fault."""
    def need(label):
        op = ops.get(label)
        return op.report if op is not None and op.report is not None else None

    if (rep := need("estimate")) is not None:
        count, finite = _finite_instance(inputs.dir / "instance.json")
        if not (rep["followers"] == count == inputs.expect["followers"] and finite):
            ops["estimate"].problems.append(
                f"estimate wrote {count} followers (finite={finite}), "
                f"expected {inputs.expect['followers']}")
    if (opt := need("optimize")) is not None and (ev := need("evaluate")) is not None:
        if not _close(opt["total"], ev["total"]):
            ops["evaluate"].problems.append(
                f"evaluate total {ev['total']!r} != greedy total {opt['total']!r}")
    if (brute := need("optimize-brute")) is not None:
        floor = brute["total"] + REL_TOL * abs(brute["total"])
        if (ms := need("optimize-multistart")) is not None and ms["total"] > floor:
            ops["optimize-brute"].problems.append(
                f"brute total {brute['total']!r} < multistart total {ms['total']!r}")
        if greedy_total > floor:
            ops["optimize-brute"].problems.append(
                f"brute total {brute['total']!r} < greedy total {greedy_total!r}")
    if (sim := need("simulate")) is not None:
        if not (math.isfinite(sim["empirical_total"]) and abs(sim["z_score"]) < Z_LIMIT):
            ops["simulate"].problems.append(
                f"simulate |z| = {abs(sim['z_score'])} is not below {Z_LIMIT}")
    if (an := need("analyze")) is not None:
        with (inputs.dir / "analysis" / "cluster_stats.csv").open(newline="") as fh:
            posts = sum(int(row["total"]) for row in csv.DictReader(fh))
        expected = {inputs.expect["timeline_posts"]}
        if traced_posts is not None:
            expected.add(traced_posts)
        if expected != {posts}:
            ops["analyze"].problems.append(
                f"cluster_stats.csv counts {posts} posts, expected {sorted(expected)}")
        pvals = list(an["p_values"].values())
        if not pvals or not all(0.0 < v <= 1.0 for v in pvals):
            ops["analyze"].problems.append(f"p-values outside (0, 1]: {pvals}")


def fingerprint(ops: dict[str, OpResult]) -> dict:
    return {
        label: {k: op.report[k] for k in FINGERPRINT_FIELDS[op.step.command]
                if k in op.report}
        for label, op in ops.items()
        if op.report is not None
    }


def _diff(ref, got, where: str) -> list[str]:
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(ref, float(got)) else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in _diff(ref[k], got[k], f"{where}.{k}")]
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]


def check_fingerprint(ops: dict[str, OpResult], reference: dict) -> None:
    got = fingerprint(ops)
    for label, ref in reference.items():
        if label in ops and label in got:
            ops[label].problems.extend(_diff(ref, got[label], label))


# ------------------------------------------------------------------ passes


def run_pass(inputs: Inputs, tracer=None) -> dict[str, OpResult]:
    """Run the command sequence once; time each `cli.main` call."""
    from feedsched import cli

    ops: dict[str, OpResult] = {}
    for step in inputs.steps:
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(step.argv)
                else:
                    code = tracer.call("cli", step.command, cli.main, step.argv)
            except Exception:
                code = None
                problems.append(traceback.format_exc())
            seconds = perf_counter() - start
        report = None
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()}")
        else:
            try:
                report = json.loads(out.getvalue())
            except json.JSONDecodeError as exc:
                problems.append(f"unparsable --json output: {exc}")
        ops[step.label] = OpResult(step, seconds, report, problems)
    return ops


def _span_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from perfbench.tracing import self_times

    selfs = self_times(spans)
    total = defaultdict(float)
    self_by = defaultdict(float)
    calls = defaultdict(int)
    by_id = {s[0]: s for s in spans}
    rounded_check = 0.0
    for sid, parent, op, name, start, end in spans:
        key = f"{op}.{name}"
        total[key] += end - start
        self_by[key] += selfs[sid]
        calls[key] += 1
        in_simulate = parent is not None and by_id[parent][2:4] == ("cli", "simulate")
        if in_simulate and key in ("simulate.rounded_instance", "objective.attention_potential"):
            rounded_check += end - start

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "formats.load_trace_s": total["formats.load_trace"],
        "formats.load_graph_s": total["formats.load_graph"],
        "formats.trace_events": counts["formats.trace_events"],
        "formats.instance_load_s": total["formats.load_json"] + total["formats.instance_from_dict"],
        "estimate.build_instance_s": total["estimate.build_instance"],
        "estimate.consumption_depth_mu_s": total["estimate.consumption_depth_mu"],
        "estimate.aggregate_competitors_s": total["estimate.aggregate_competitors"],
        "estimate.followers": counts["estimate.followers"],
        "objective.attention_total_calls": calls["objective.attention_total"],
        "objective.attention_total_s": total["objective.attention_total"],
        "objective.attention_total_us_per_follower": 1e6 * ratio(
            total["objective.attention_total"],
            counts["objective.attention_total_follower_evals"]),
        "objective.attention_potential_s": total["objective.attention_potential"],
        "objective.heatmap_s": total["objective.heatmap"],
        "objective.timeline_view_s": total["objective.timeline_view"],
        "model.survival_calls": counts["model.survival_calls"],
        "optimize.marginal_allocation_s": total["optimize.marginal_allocation"],
        "optimize.evaluations": counts["optimize.evaluations"],
        "optimize.greedy_step_s": ratio(
            total["optimize.marginal_allocation"], counts["optimize.greedy_scans"]),
        "optimize.self_s": sum(v for k, v in self_by.items() if k.startswith("optimize.")),
        "optimize.steps_per_evaluation": ratio(
            counts["optimize.greedy_steps"], counts["optimize.greedy_evaluations"]),
        "optimize.brute_force_s": total["optimize.brute_force"],
        "optimize.brute_schedules_per_s": ratio(
            counts["optimize.brute_schedules"], total["optimize.brute_force"]),
        "optimize.multistart_s": total["optimize.multistart"],
        "simulate.simulate_s": total["simulate.simulate"],
        "simulate.follower_days_per_s": ratio(
            counts["simulate.follower_days"], total["simulate.simulate"]),
        "simulate.rounded_check_s": rounded_check,
        "analyze.reconstruct_timeline_s": total["analyze.reconstruct_timeline"],
        "analyze.extract_clusters_s": total["analyze.extract_clusters"],
        "analyze.timeline_posts": counts["analyze.timeline_posts"],
        "analyze.clusters": counts["analyze.clusters"],
        "analyze.posts_per_s": ratio(
            counts["analyze.timeline_posts"],
            total["analyze.reconstruct_timeline"] + total["analyze.extract_clusters"]),
        "analyze.counts_s": total["analyze.reaction_counts"]
        + total["analyze.reaction_prob_by_size_position"],
        "analyze.permutation_test_s": total["analyze.permutation_test"],
    }
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = self_by[f"cli.{c}"]
    return m


def self_time_table(spans, passes: int) -> list[str]:
    """Per span name, mean calls and seconds per traced pass, by self time."""
    from perfbench.tracing import self_times

    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, op, name, start, end in spans:
        row = rows[f"{op}.{name}"]
        row[0] += 1
        row[1] += end - start
        row[2] += selfs[sid]
    wall = sum(r[2] for k, r in rows.items() if k != "bench.pass")
    lines = [f"{'span':<40}{'calls':>10}{'total_s':>12}{'self_s':>12}{'self%':>8}"]
    for key, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{key:<40}{n / passes:>10.1f}{tot / passes:>12.6f}{slf / passes:>12.6f}"
            f"{100 * slf / wall if wall else 0.0:>8.2f}")
    lines.append(f"{'sum of self times (cli and below)':<62}{wall / passes:>12.6f}")
    return lines


# ------------------------------------------------------------------ a run


def _import_program():
    """Import feedsched from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "feedsched" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'feedsched'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import feedsched.cli  # noqa: F401

    where = Path(sys.modules["feedsched"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: feedsched was imported from {where}, not {SRC}")


def _time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def _load_fingerprints(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def run(args) -> dict:
    t0 = perf_counter()
    _import_program()
    import_s = perf_counter() - t0
    from feedsched import formats, optimize
    from perfbench.tracing import Tracer

    workdir = WORK / f"{args.scale}-{args.workload}-{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        inputs = make_inputs(args.workload, args.seed, args.scale, workdir)
        setup_times.append(perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    fp_key = f"{args.scale}/{args.workload}/{args.seed}"
    # --record replaces the stored answers, so it checks passes only against
    # the run's first pass.
    stored = None if args.record else _load_fingerprints(args.fingerprints).get(fp_key)
    greedy_total = None
    if args.workload == "exact":
        instance = formats.instance_from_dict(
            formats.load_json(inputs.dir / "instance.json"))
        greedy_total = optimize.marginal_allocation(instance).total

    untraced: list[tuple[dict[str, OpResult], float]] = []  # (ops, reference s)
    traced: list[dict] = []
    traced_walls: list[float] = []
    tracer = Tracer()
    first_fp = None
    attempted = failed = 0
    start = perf_counter()
    refs = [_time_reference()]
    while True:
        use_trace = args.trace == 1 and len(traced) < len(untraced)
        gc.collect()
        if use_trace:
            tracer.install()
            first_span = len(tracer.spans)
            try:
                ops = tracer.call("bench", "pass", run_pass, inputs, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans[first_span:]
            counts = tracer.take_counts()
        else:
            ops = run_pass(inputs)
            counts = None
        try:
            check_pass(ops, inputs, greedy_total,
                       counts["analyze.timeline_posts"] if use_trace else None)
            check_fingerprint(ops, stored if stored is not None else (first_fp or {}))
        except Exception:
            for op in ops.values():
                op.problems.append("output check raised:\n" + traceback.format_exc())
        if first_fp is None:
            first_fp = fingerprint(ops)
        for op in ops.values():
            attempted += 1
            if op.problems:
                failed += 1
                print(f"FAILED {op.step.label}: " + "; ".join(op.problems), file=sys.stderr)
        refs.append(_time_reference())
        if use_trace:
            traced.append(_span_metrics(spans, counts))
            traced_walls.append(sum(o.seconds for o in ops.values()))
        else:
            untraced.append((ops, (refs[-2] + refs[-1]) / 2))
        # Stop where one more pass would overrun --seconds by over half a pass.
        elapsed = perf_counter() - start
        done = elapsed + 0.5 * elapsed / (len(untraced) + len(traced)) >= args.seconds
        if done and (args.trace == 0 or traced):
            break

    def seconds(ops, command=None) -> float:
        return sum((o.seconds for o in ops.values()
                    if command in (None, o.step.command)), 0.0)

    def median_s(command=None) -> float:
        return statistics.median(seconds(ops, command) for ops, _ in untraced)

    def median_ref(command=None) -> float:
        return statistics.median(seconds(ops, command) / ref for ops, ref in untraced)

    wall = median_s()
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed")
    print(f"medians in seconds: wall_s {wall:.6f}, optimize_s {median_s('optimize'):.6f}, "
          f"simulate_s {median_s('simulate'):.6f}, reference_s {statistics.median(refs):.6f}")
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "wall_ref": median_ref(),
            "optimize_ref": median_ref("optimize"),
            "simulate_ref": median_ref("simulate"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
        metrics.update({f"{c}_s": median_s(c) for c in COMMANDS})
        metrics.update({
            "wall_s": wall,
            "reference_s": statistics.median(refs),
            "error_rate": failed / attempted,
        })
        print(f"self time per traced pass ({len(traced)} passes); "
              f"untraced wall_s {wall:.6f}, trace.overhead_s {metrics['trace.overhead_s']:.6f}")
        for line in self_time_table(tracer.spans, len(traced)):
            print(line)
        spans_path = WORK / f"spans-{args.scale}-{args.workload}-{args.seed}.json"
        t_base = tracer.spans[0][4] if tracer.spans else 0.0
        spans_path.write_text(json.dumps(
            [dict(zip(("id", "parent", "op", "name", "start", "end"),
                      (sid, parent, op, name, s - t_base, e - t_base)))
             for sid, parent, op, name, s, e in tracer.spans],
            separators=(",", ":")))
        print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")

    if args.record and failed == 0:
        book = _load_fingerprints(args.fingerprints)
        book[fp_key] = first_fp
        args.fingerprints.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
        print(f"recorded fingerprint {fp_key} in {args.fingerprints}")
    elif args.record:
        print(f"not recording fingerprint {fp_key}: {failed} operations failed",
              file=sys.stderr)

    units = END_TO_END if args.trace == 0 else PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def report(args) -> int:
    """Run every workload untraced and traced; print one row per workload."""
    status = 0
    for workload in WORKLOADS:
        row = {"correct": True, "attempted": 0, "failed": 0}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale, "--fingerprints", str(args.fingerprints)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
                status = 1
                break
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            row["correct"] = row["correct"] and result["correct"]
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row.update(result["metrics"])
        cells = [f"{k}={v}" for k, v in row.items() if not isinstance(v, dict)]
        cells += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in row.items()
                  if isinstance(v, dict)]
        print(f"{workload}: " + ", ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full")
    parser.add_argument("--fingerprints", type=Path, default=FINGERPRINTS,
                        help="stored answers per scale/workload/seed")
    parser.add_argument("--record", action="store_true",
                        help="store this run's answers as the fingerprint")
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print one row each")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    sys.path.insert(0, str(ROOT))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
