"""Command-line interface tying estimation, evaluation, optimization,
simulation and analysis together.

Exit codes are a stable contract: 0 success, 2 malformed or inconsistent
input, 3 estimation failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__

# perfbench/tracing.py rebinds names imported below by getattr; keep them even if unused.
from .analyze import (
    OVERFLOW_BUCKET,
    ClusterTally,
    bucket_name,
    extract_clusters,
    interevent_times,
    permutation_test,
    powerlaw_alpha,
    reaction_counts,
    reaction_prob_by_size,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from .estimate import DEFAULT_FALLBACK, DEFAULT_GAP_HOURS, GAMMA_MODES, SECONDS_PER_DAY
from .estimate import EstimationError, build_instance
from .formats import (
    dump_json,
    from_json,
    instance_from_dict,
    instance_to_dict,
    load_activity,
    load_counts,
    load_graph,
    load_json,
    load_trace,
    schedule_from_dict,
    schedule_to_dict,
)
from .model import _left_sum
from .objective import TimelineLayout, attention_potential, heatmap, timeline_view  # noqa: F401
from .optimize import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_LUNCH_HOURS,
    DEFAULT_NIGHT_HOURS,
    EnumerationCapError,
    HEURISTICS,
    brute_force,
    heuristic,
    marginal_allocation,
    multistart,
)
from .simulate import rounded_instance, simulate

__all__ = ["RunConfig", "build_parser", "main", "entrypoint"]

# Greedy runs of `optimize --method multistart` without `--restarts`.
DEFAULT_RESTARTS = 4


@dataclass
class RunConfig:
    """Run-wide defaults; a JSON config file may override any field and
    command-line flags override the file (`from_sources` takes every given flag
    whose argparse dest is a field name). The file is decoded by
    `formats.from_json`, so unknown keys and values of the wrong type are
    rejected."""

    slots: int = 24
    budget: int | None = None
    tz_offset_minutes: int = 0
    gap_hours: float = DEFAULT_GAP_HOURS
    follower_survival_family: str = "geometric"
    cluster_survival_family: str = "geometric"
    follower_survival_p: float = 1.0
    cluster_survival_p: float = 1.0
    cluster_survival_shifted: bool = True
    rho_default: float = DEFAULT_FALLBACK
    delta_default: float = DEFAULT_FALLBACK
    gamma_mode: str = GAMMA_MODES[0]
    night_hours: tuple[int, int] = DEFAULT_NIGHT_HOURS
    lunch_hours: tuple[int, int] = DEFAULT_LUNCH_HOURS
    seed: int = 0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    permutations: int = 1000
    matrix_max_size: int = 5
    tau_min_hours: float = 1.0

    @classmethod
    def from_sources(cls, args) -> "RunConfig":
        raw = load_json(args.config) if args.config is not None else {}
        flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
        flags = {key: value for key, value in flags.items() if value is not None}
        cfg = replace(from_json(cls, raw, args.config), **flags)
        if cfg.slots < 1 or SECONDS_PER_DAY % cfg.slots != 0:
            raise ValueError(f"slots must divide 86400 seconds, got {cfg.slots}")
        for key, flag in (("gap_hours", "--gap-hours"), ("tau_min_hours", "--tau-min")):
            value = getattr(cfg, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} ({flag}) must be finite and > 0, got {value}")
        for key in ("rho_default", "delta_default"):
            value = getattr(cfg, key)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} must be finite and in [0, 1], got {value}")
        if cfg.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {cfg.seed}")
        for key, flag in (("enumeration_cap", "--cap"), ("permutations", "--permutations")):
            value = getattr(cfg, key)
            if value < 1:
                raise ValueError(f"{key} ({flag}) must be >= 1, got {value}")
        for key, flag, low, high in (
            ("matrix_max_size", "--max-size", 2, OVERFLOW_BUCKET),
            ("tz_offset_minutes", "--tz-offset-minutes", -720, 840),  # UTC-12 to UTC+14
        ):
            value = getattr(cfg, key)
            if not low <= value <= high:
                raise ValueError(f"{key} ({flag}) must be in {low}..{high}, got {value}")
        for key in ("night_hours", "lunch_hours"):
            hours = getattr(cfg, key)
            if not all(0 <= h <= 23 for h in hours):
                raise ValueError(f"{key} must be hours in 0..23, got {list(hours)}")
        return cfg


class Report:
    """One command's results, each value given once with its JSON key and the
    template of its text line. `lap` charges the wall time since the previous lap
    to a stage, shown as `timings_s` in the JSON object only, so the text stays
    deterministic. `emit` prints the text or the JSON (strict JSON: a NaN or an
    infinity is an error) and returns exit code 0."""

    def __init__(self) -> None:
        self.timings_s: dict[str, float] = {}
        self.fields: dict = {"timings_s": self.timings_s}
        self.lines: list[str] = []
        self._mark = perf_counter()

    def add(self, key: str, value, template: str | None = None) -> None:
        """Record `value` under `key`; a template adds the line `template.format(value)`."""
        self.fields[key] = value
        if template is not None:
            self.lines.append(template.format(value))

    def text(self, line: str) -> None:
        self.lines.append(line)

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self.timings_s[stage] = self.timings_s.get(stage, 0.0) + now - self._mark
        self._mark = now

    def emit(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps(self.fields, indent=2, sort_keys=True, allow_nan=False))
        else:
            for line in self.lines:
                print(line)
        return 0


def _refuse_unread(*rules) -> None:
    """Refuse flags that the chosen mode never reads, before any file is read.
    Each rule is a flag, whether it was given, whether the mode reads it and
    what it needs; the message names every flag refused."""
    unread = [f"{flag} needs {need}" for flag, given, read, need in rules if given and not read]
    if unread:
        raise ValueError("; ".join(unread))


def _write_csv(path, header, rows) -> None:
    """A CSV file as `csv.writer` writes it; a float is written as its repr."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    report = Report()
    cfg = RunConfig.from_sources(args)
    if cfg.budget is None:
        raise ValueError("a post budget is required (--budget or the config file)")
    trace = load_trace(args.trace, tz_offset_minutes=cfg.tz_offset_minutes)
    graph = load_graph(args.graph)
    report.lap("load")
    instance = build_instance(
        args.producer,
        graph,
        trace,
        cfg.slots,
        cfg.budget,
        gap_hours=cfg.gap_hours,
        rho_default=cfg.rho_default,
        delta_default=cfg.delta_default,
        gamma_mode=cfg.gamma_mode,
        **{key: value for key, value in vars(cfg).items() if "_survival_" in key},
    )
    report.lap("estimate")
    dump_json(instance_to_dict(instance), args.out)
    report.lap("write")
    # Added left to right in follower order, as these means were always added;
    # `np.sum` adds pairwise and would move their last bits.
    followers = instance.followers
    n = len(followers)
    mean_rho = _left_sum(followers.rho.tolist()) / n
    mean_delta = _left_sum(followers.delta.tolist()) / n
    total_load = _left_sum(map(_left_sum, followers.competitor_load.tolist()))
    report.add("followers", n, "followers: {}")
    report.add("mean_rho", mean_rho, "mean rho: {:.6f}")
    report.add("mean_delta", mean_delta, "mean delta: {:.6f}")
    report.add("total_competitor_load", total_load, "total competitor load per day: {:.6f}")
    report.add("instance_path", str(args.out), "wrote {}")
    return report.emit(args.json)


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    _refuse_unread(("--mean-center", args.mean_center, bool(args.heatmap), "--heatmap"))
    report = Report()
    instance = instance_from_dict(load_json(args.instance), args.instance)
    schedule = schedule_from_dict(load_json(args.schedule), args.schedule)
    report.lap("load")
    breakdown = attention_potential(schedule, instance)
    report.add("total", breakdown.total, "attention total: {:.6f}")
    report.lap("evaluate")
    if args.breakdown:
        _write_breakdown(args.breakdown, instance, schedule, breakdown.per_cluster)
        report.add("breakdown_path", str(args.breakdown), "wrote breakdown {}")
        report.lap("breakdown")
    if args.heatmap:
        grid = heatmap(schedule, instance, mean_center=args.mean_center)
        header = ["broadcast_slot"] + [f"login_{h}" for h in range(instance.slots)]
        rows = [[s] + row for s, row in enumerate(grid.tolist())]
        _write_csv(args.heatmap, header, rows)
        report.add("heatmap_path", str(args.heatmap), "wrote heatmap {}")
        report.lap("heatmap")
    return report.emit(args.json)


# Followers whose `--breakdown` rows are joined into one string: the file is
# written a chunk at a time, never held whole.
BREAKDOWN_CHUNK = 256
# A row as `csv.writer` writes it, given the id as it would quote it; floats as repr.
_BREAKDOWN_ROW = "%s,%d,%d,%d,%r,%r,%r\r\n"
_NEEDS_QUOTING = re.compile('[,"\r\n]')


def _write_breakdown(path, instance, schedule, per_cluster) -> None:
    """The per-cluster CSV: one row per follower and timeline position, read
    from the instance's layout and joined a chunk of followers at a time."""
    layout = TimelineLayout.of(instance)
    x = layout.timeline_posts(schedule.posts)
    columns = (layout.order, x, layout.loads, layout.depths(x), per_cluster.T)
    slots = instance.slots
    ids = [
        '"' + i.replace('"', '""') + '"' if _NEEDS_QUOTING.search(i) else i
        for i in instance.followers.ids
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("follower_id,cluster_position,source_slot,producer_count,"
                 "competitor_above,depth_offset,attention\r\n")
        for start in range(0, len(ids), BREAKDOWN_CHUNK):
            chunk = ids[start : start + BREAKDOWN_CHUNK]
            rows = zip(
                [i for i in chunk for _ in range(slots)],
                list(range(slots)) * len(chunk),
                *(c[start : start + len(chunk)].ravel().tolist() for c in columns),
            )
            fh.write("".join(map(_BREAKDOWN_ROW.__mod__, rows)))


# ---------------------------------------------------------------- optimize


def cmd_optimize(args) -> int:
    mode = args.method or args.heuristic
    _refuse_unread(
        ("--spend", args.spend is not None, args.heuristic is not None, "--heuristic"),
        ("--activity", args.activity is not None, mode == "peak", "--heuristic peak"),
        ("--initial", args.initial is not None, mode == "marginal", "--method marginal"),
        ("--restarts", args.restarts is not None, mode == "multistart", "--method multistart"),
        ("--trace", args.trace is not None, args.method is not None, "--method"),
    )
    report = Report()
    cfg = RunConfig.from_sources(args)
    instance = instance_from_dict(load_json(args.instance), args.instance)
    report.lap("load")

    result = None
    if args.heuristic:
        spend = args.spend if args.spend is not None else instance.budget
        activity = load_activity(args.activity, instance.slots) if args.activity else None
        schedule = heuristic(
            args.heuristic,
            instance,
            spend,
            activity,
            night_hours=cfg.night_hours,
            lunch_hours=cfg.lunch_hours,
        )
        total = attention_potential(schedule, instance).total
        report.add("heuristic", args.heuristic, "heuristic: {}")
    else:
        if args.method == "marginal":
            initial = (
                schedule_from_dict(load_json(args.initial), args.initial) if args.initial else None
            )
            result = marginal_allocation(instance, initial)
        elif args.method == "brute":
            result = brute_force(instance, cap=cfg.enumeration_cap)
        else:
            restarts = args.restarts if args.restarts is not None else DEFAULT_RESTARTS
            result = multistart(instance, restarts, cfg.seed)
        schedule, total = result.schedule, result.total
        report.add("method", args.method, "method: {}")
    report.lap("optimize")

    report.add("posts", list(schedule.posts), "posts: " + ",".join(map(str, schedule.posts)))
    report.add("spend", schedule.spend, f"spend: {{}} of budget {instance.budget}")
    report.add("total", total, "attention total: {:.6f}")
    if result is not None:
        report.add("evaluations", result.evaluations, "evaluations: {}")
        report.add("terminated_by", result.terminated_by, "terminated by: {}")
        if args.trace:
            rows = [(it, *step) for it, step in enumerate(result.trajectory, start=1)]
            _write_csv(args.trace, ["iteration", "slot", "gain"], rows)
            report.add("trajectory_path", str(args.trace), "wrote trajectory {}")
    dump_json(schedule_to_dict(schedule), args.out)
    report.add("schedule_path", str(args.out), "wrote {}")
    report.lap("write")
    return report.emit(args.json)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    report = Report()
    instance = instance_from_dict(load_json(args.instance), args.instance)
    schedule = schedule_from_dict(load_json(args.schedule), args.schedule)
    report.lap("load")
    # The replay runs on whole loads, so the analytic check reads the same ones.
    rounded = rounded_instance(instance)
    result = simulate(schedule, rounded, args.days, args.seed, merged=args.merged)
    report.lap("simulate")
    analytic = attention_potential(schedule, rounded).total
    report.lap("analytic")
    diff = result.empirical_total - analytic
    # With no spread and a nonzero difference the z-score is unbounded: null in JSON.
    z = diff / result.standard_error if result.standard_error > 0 else None if diff else 0.0
    report.add("mode", result.mode, "mode: {}")
    report.add("days", result.replications, "days: {}")
    report.add("seed", result.seed, "seed: {}")
    report.add("empirical_total", result.empirical_total, "empirical total: {:.6f}")
    report.add("standard_error", result.standard_error, "standard error: {:.6f}")
    report.add("analytic_total_rounded", analytic, "analytic total (rounded loads): {:.6f}")
    report.add("z_score", z, "z-score: n/a" if z is None else "z-score: {:.4f}")
    return report.emit(args.json)


# ---------------------------------------------------------------- analyze


def _matrix_rows(values: dict[tuple[int, int], float], max_size: int):
    header = ["i\\j"] + [bucket_name(j) for j in range(2, max_size + 1)]
    rows = [
        [bucket_name(i)] + [values.get((i, j), "") for j in range(2, max_size + 1)]
        for i in range(1, max_size)
    ]
    return header, rows


def cmd_analyze(args) -> int:
    report = Report()
    cfg = RunConfig.from_sources(args)
    out_dir = Path(args.out)

    def write(name, header, rows):
        # Made at the first write, so that no refused run leaves a directory behind.
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / name, header, rows)
        report.text(f"wrote {out_dir / name}")

    if args.counts:
        extra = (("a trace", args.trace), ("a graph", args.graph), ("--user", args.user))
        given = [name for name, value in extra if value is not None] + ["--all"] * args.all
        if given:
            raise ValueError(f"--counts cannot be given with {', '.join(given)}")
        counts = load_counts(args.counts)
        tally = None
        report.lap("load")
    else:
        if not args.trace or not args.graph:
            raise ValueError("either --counts or both a trace and a graph are required")
        if (args.user is not None) == bool(args.all):
            raise ValueError("exactly one of --user or --all is required")
        trace = load_trace(args.trace, tz_offset_minutes=cfg.tz_offset_minutes)
        graph = load_graph(args.graph)
        report.lap("load")
        # Each user's clusters are added to the tally and dropped at once.
        tally = ClusterTally()
        for user in [args.user] if args.user is not None else graph.users():
            tally.add(extract_clusters(reconstruct_timeline(user, graph, trace)))
        counts = reaction_counts(tally)
        report.lap("clusters")

    probs = reaction_prob_by_size(counts)
    stats_rows = [(bucket_name(b), *counts[b], probs[b]) for b in sorted(counts)]
    write("cluster_stats.csv", ["size", "reactions", "total", "probability"], stats_rows)
    report.add("cluster_stats", {bucket_name(b): probs[b] for b in sorted(probs)})

    max_size = cfg.matrix_max_size
    sizes = [k for k in range(1, max_size + 1) if k in counts]
    pairs = [(i, j) for i in sizes for j in sizes if i < j]
    tests = {pair: permutation_test(counts, *pair, cfg.permutations, cfg.seed) for pair in pairs}
    t_obs = {pair: test.t_obs for pair, test in tests.items()}
    p_values = {pair: test.p_value for pair, test in tests.items()}
    report.lap("tests")
    for name, values in (("t_obs", t_obs), ("p_values", p_values)):
        write(f"{name}.csv", *_matrix_rows(values, max_size))
        report.add(
            name, {f"{bucket_name(i)},{bucket_name(j)}": v for (i, j), v in sorted(values.items())}
        )

    if tally is not None:
        by_pos = reaction_prob_by_size_position(tally)
        write(
            "reaction_by_size_position.csv",
            ["size", "position", "probability"],
            [(bucket_name(b), k, p) for (b, k), p in sorted(by_pos.items())],
        )

        taus = interevent_times(trace)
        if taus:
            edges = np.geomspace(min(taus), max(taus) * (1 + 1e-12), 31)
            hist, _ = np.histogram(taus, bins=edges)
            write(
                "interevent_histogram.csv",
                ["bin_left_hours", "bin_right_hours", "count"],
                zip(edges[:-1].tolist(), edges[1:].tolist(), hist.tolist()),
            )
        try:
            alpha = powerlaw_alpha(taus, cfg.tau_min_hours)
            template = f"power-law exponent (tau >= {cfg.tau_min_hours}h): {{:.4f}}"
            report.add("powerlaw_alpha", alpha, template)
        except ValueError:
            report.text("power-law exponent: n/a (too few inter-event samples)")
    report.lap("write")
    return report.emit(args.json)


# ---------------------------------------------------------------- wiring


def _user_id(arg: str) -> str:
    """A user id from the command line, read as UTF-8 like every input file.
    Python decodes `sys.argv` in the locale encoding (under an ASCII locale,
    `émile` arrives as '\\udcc3\\udca9mile'), so its bytes are decoded again.
    Paths are left as Python decoded them."""
    try:
        raw = os.fsencode(arg)
    except UnicodeEncodeError:
        return arg  # text passed to `main` that the locale cannot encode: not from argv bytes
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise argparse.ArgumentTypeError(f"{arg!r} is not valid UTF-8") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedsched",
        description=(
            "Evaluate, optimize and analyze broadcast schedules over follower timelines."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate follower parameters from a trace")
    p.add_argument("trace", help="activity trace (JSONL)")
    p.add_argument("graph", help="follow graph (CSV: follower,followee)")
    p.add_argument("producer", type=_user_id, help="producer user id")
    p.add_argument("-o", "--out", required=True, help="output instance JSON path")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tz-offset-minutes", type=int, default=None)
    p.add_argument("--gap-hours", type=float, default=None)
    p.add_argument("--gamma-mode", choices=GAMMA_MODES, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="evaluate a schedule against an instance")
    p.add_argument("instance", help="instance JSON")
    p.add_argument("schedule", help="schedule JSON")
    p.add_argument("--breakdown", default=None, help="write per-cluster CSV here")
    p.add_argument("--heatmap", default=None, help="write broadcast x login CSV here")
    p.add_argument("--mean-center", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="produce a schedule")
    p.add_argument("instance", help="instance JSON")
    p.add_argument("-o", "--out", required=True, help="output schedule JSON path")
    choice = p.add_mutually_exclusive_group(required=True)
    choice.add_argument("--method", choices=("marginal", "brute", "multistart"), default=None)
    choice.add_argument("--heuristic", choices=HEURISTICS, default=None)
    p.add_argument("--spend", type=int, default=None, help="posts for --heuristic")
    p.add_argument("--activity", default=None, help="per-slot weights CSV for peak")
    p.add_argument("--initial", default=None, help="initial schedule JSON for marginal")
    p.add_argument("--restarts", type=int, default=None, help=f"default {DEFAULT_RESTARTS}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", dest="enumeration_cap", type=int, help="enumeration cap for brute")
    p.add_argument("--trace", default=None, help="write the greedy trajectory CSV here")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo check of the analytic objective")
    p.add_argument("instance", help="instance JSON")
    p.add_argument("schedule", help="schedule JSON")
    p.add_argument("--days", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--merged", action="store_true", help="merge zero-separation clusters")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="cluster statistics and randomization tests")
    p.add_argument("trace", nargs="?", default=None, help="activity trace (JSONL)")
    p.add_argument("graph", nargs="?", default=None, help="follow graph (CSV)")
    p.add_argument("--user", type=_user_id, default=None, help="analyze one user's timeline")
    p.add_argument("--all", action="store_true", help="analyze every user's timeline")
    p.add_argument("--counts", default=None, help="size,reactions,total CSV instead of a trace")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.add_argument("--permutations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--max-size", dest="matrix_max_size", type=int, help="largest size in the matrices"
    )
    p.add_argument(
        "--tau-min", dest="tau_min_hours", type=float, help="power-law tail cutoff, hours"
    )
    p.add_argument("--tz-offset-minutes", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (EnumerationCapError, EstimationError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EnumerationCapError):
            return 4
        return 3 if isinstance(exc, EstimationError) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
