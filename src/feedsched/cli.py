"""Command-line interface tying estimation, evaluation, optimization,
simulation and analysis together.

Exit codes are a stable contract: 0 success, 2 malformed or inconsistent
input, 3 estimation failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__

# perfbench/tracing.py rebinds names imported below by getattr; keep them even if unused.
from .analyze import (
    OVERFLOW_BUCKET,
    bucket_name,
    difference_statistic,
    extract_clusters,
    interevent_times,
    permutation_test,
    powerlaw_alpha,
    reaction_counts,
    reaction_prob_by_size,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from .estimate import EstimationError, build_instance
from .formats import (
    TraceFormatError,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_graph,
    load_json,
    load_trace,
    schedule_from_dict,
    schedule_to_dict,
)
from .model import Schedule
from .objective import attention_potential, heatmap, timeline_view
from .optimize import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    HEURISTICS,
    brute_force,
    heuristic,
    marginal_allocation,
    multistart,
)
from .simulate import rounded_instance, simulate

__all__ = ["RunConfig", "build_parser", "main", "entrypoint"]

SECONDS_PER_DAY = 86400


@dataclass
class RunConfig:
    """Run-wide defaults; a JSON config file may override any field and
    command-line flags override the file. Unknown file keys are rejected."""

    slots: int = 24
    budget: int | None = None
    tz_offset_minutes: int = 0
    gap_hours: float = 8.0
    follower_survival_family: str = "geometric"
    cluster_survival_family: str = "geometric"
    follower_survival_p: float = 1.0
    cluster_survival_p: float = 1.0
    cluster_survival_shifted: bool = True
    rho_default: float = 0.5
    delta_default: float = 0.5
    gamma_mode: str = "one"
    night_hours: tuple[int, int] = (23, 6)
    lunch_hours: tuple[int, int] = (12, 13)
    seed: int = 0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    permutations: int = 1000
    matrix_max_size: int = 5
    tau_min_hours: float = 1.0

    @classmethod
    def from_sources(cls, config_path=None, **overrides) -> "RunConfig":
        values = {}
        if config_path is not None:
            raw = load_json(config_path)
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = sorted(set(raw) - known)
            if unknown:
                raise ValueError(f"{config_path}: unknown config keys {unknown}")
            values.update(raw)
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
        cfg = cls(**values)
        for pair_field in ("night_hours", "lunch_hours"):
            pair = getattr(cfg, pair_field)
            if len(pair) != 2:
                raise ValueError(f"{pair_field} must hold exactly two hours")
            setattr(cfg, pair_field, (int(pair[0]), int(pair[1])))
        if SECONDS_PER_DAY % cfg.slots != 0:
            raise ValueError(f"slots must divide 86400 seconds, got {cfg.slots}")
        return cfg


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, report: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    cfg = RunConfig.from_sources(
        args.config,
        slots=args.slots,
        budget=args.budget,
        tz_offset_minutes=args.tz_offset_minutes,
        gap_hours=args.gap_hours,
        gamma_mode=args.gamma_mode,
    )
    if cfg.budget is None:
        raise ValueError("a post budget is required (--budget or the config file)")
    trace = load_trace(args.trace, tz_offset_minutes=cfg.tz_offset_minutes)
    graph = load_graph(args.graph)
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
        follower_survival_family=cfg.follower_survival_family,
        cluster_survival_family=cfg.cluster_survival_family,
        follower_survival_p=cfg.follower_survival_p,
        cluster_survival_p=cfg.cluster_survival_p,
        cluster_survival_shifted=cfg.cluster_survival_shifted,
    )
    dump_json(instance_to_dict(instance), args.out)
    n = len(instance.followers)
    mean_rho = sum(f.rho for f in instance.followers) / n
    mean_delta = sum(f.delta for f in instance.followers) / n
    total_load = sum(sum(f.competitor_load) for f in instance.followers)
    report = {
        "followers": n,
        "mean_rho": mean_rho,
        "mean_delta": mean_delta,
        "total_competitor_load": total_load,
        "instance_path": str(args.out),
    }
    _emit(
        args,
        report,
        [
            f"followers: {n}",
            f"mean rho: {mean_rho:.6f}",
            f"mean delta: {mean_delta:.6f}",
            f"total competitor load per day: {total_load:.6f}",
            f"wrote {args.out}",
        ],
    )
    return 0


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    instance = instance_from_dict(load_json(args.instance))
    schedule = schedule_from_dict(load_json(args.schedule))
    breakdown = attention_potential(schedule, instance)
    lines = [f"attention total: {breakdown.total:.6f}"]
    report = {"total": breakdown.total}
    if args.breakdown:
        rows = []
        for j, follower in enumerate(instance.followers):
            for view in timeline_view(schedule, follower):
                rows.append(
                    (
                        follower.id,
                        view.position,
                        view.source_slot,
                        view.producer_count,
                        _cell(view.competitor_above),
                        _cell(view.depth_offset),
                        _cell(float(breakdown.per_cluster[view.position, j])),
                    )
                )
        _write_csv(
            args.breakdown,
            [
                "follower_id",
                "cluster_position",
                "source_slot",
                "producer_count",
                "competitor_above",
                "depth_offset",
                "attention",
            ],
            rows,
        )
        lines.append(f"wrote breakdown {args.breakdown}")
        report["breakdown_path"] = str(args.breakdown)
    if args.heatmap:
        grid = heatmap(schedule, instance, mean_center=args.mean_center)
        slots = instance.slots
        _write_csv(
            args.heatmap,
            ["broadcast_slot"] + [f"login_{h}" for h in range(slots)],
            [[s] + [_cell(float(v)) for v in grid[s]] for s in range(slots)],
        )
        lines.append(f"wrote heatmap {args.heatmap}")
        report["heatmap_path"] = str(args.heatmap)
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------- optimize


def cmd_optimize(args) -> int:
    cfg = RunConfig.from_sources(args.config, seed=args.seed)
    instance = instance_from_dict(load_json(args.instance))
    if (args.method is None) == (args.heuristic is None):
        raise ValueError("exactly one of --method or --heuristic is required")

    lines: list[str] = []
    report: dict = {}
    if args.heuristic:
        spend = args.spend if args.spend is not None else instance.budget
        activity = _load_activity(args.activity, instance.slots) if args.activity else None
        schedule = heuristic(
            args.heuristic,
            instance,
            spend,
            activity,
            night_hours=cfg.night_hours,
            lunch_hours=cfg.lunch_hours,
        )
        total = attention_potential(schedule, instance).total
        lines.append(f"heuristic: {args.heuristic}")
        report["heuristic"] = args.heuristic
    else:
        if args.method == "marginal":
            initial = (
                schedule_from_dict(load_json(args.initial)) if args.initial else None
            )
            result = marginal_allocation(instance, initial)
        elif args.method == "brute":
            result = brute_force(instance, cap=args.cap or cfg.enumeration_cap)
        else:
            result = multistart(instance, args.restarts, cfg.seed)
        schedule, total = result.schedule, result.total
        lines.append(f"method: {args.method}")
        report.update(
            {
                "method": args.method,
                "evaluations": result.evaluations,
                "terminated_by": result.terminated_by,
            }
        )
        if args.trace:
            _write_csv(
                args.trace,
                ["iteration", "slot", "gain"],
                [
                    (it, slot, _cell(gain))
                    for it, (slot, gain) in enumerate(result.trajectory, start=1)
                ],
            )
            lines.append(f"wrote trajectory {args.trace}")
            report["trajectory_path"] = str(args.trace)

    dump_json(schedule_to_dict(schedule), args.out)
    posts_text = ",".join(str(v) for v in schedule.posts)
    lines[1:1] = [
        f"posts: {posts_text}",
        f"spend: {schedule.spend} of budget {instance.budget}",
        f"attention total: {total:.6f}",
    ]
    if "evaluations" in report:
        lines.append(f"evaluations: {report['evaluations']}")
        lines.append(f"terminated by: {report['terminated_by']}")
    lines.append(f"wrote {args.out}")
    report.update(
        {
            "posts": list(schedule.posts),
            "spend": schedule.spend,
            "total": total,
            "schedule_path": str(args.out),
        }
    )
    _emit(args, report, lines)
    return 0


def _load_activity(path, slots: int) -> list[float]:
    values: list[float] = []
    with Path(path).open(newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                cell = cell.strip()
                if cell:
                    values.append(float(cell))
    if len(values) != slots:
        raise ValueError(
            f"{path}: expected {slots} activity weights, found {len(values)}"
        )
    return values


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    instance = instance_from_dict(load_json(args.instance))
    schedule = schedule_from_dict(load_json(args.schedule))
    if args.days < 1:
        raise ValueError(f"--days must be >= 1, got {args.days}")
    result = simulate(schedule, instance, args.days, args.seed, merged=args.merged)
    analytic = attention_potential(schedule, rounded_instance(instance)).total
    diff = result.empirical_total - analytic
    if result.standard_error > 0:
        z = diff / result.standard_error
    else:
        z = 0.0 if diff == 0 else float("inf") if diff > 0 else float("-inf")
    report = {
        "mode": result.mode,
        "days": result.replications,
        "seed": result.seed,
        "empirical_total": result.empirical_total,
        "standard_error": result.standard_error,
        "analytic_total_rounded": analytic,
        "z_score": z,
    }
    _emit(
        args,
        report,
        [
            f"mode: {result.mode}",
            f"days: {result.replications}",
            f"seed: {result.seed}",
            f"empirical total: {result.empirical_total:.6f}",
            f"standard error: {result.standard_error:.6f}",
            f"analytic total (rounded loads): {analytic:.6f}",
            f"z-score: {z:.4f}",
        ],
    )
    return 0


# ---------------------------------------------------------------- analyze


def _load_counts(path) -> dict[int, tuple[int, int]]:
    counts: dict[int, tuple[int, int]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["size", "reactions", "total"]:
            raise TraceFormatError(
                f"{path}:1: expected the header 'size,reactions,total', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                label = row[0].strip()
                bucket = OVERFLOW_BUCKET if label.startswith(">") else int(label)
                counts[bucket] = (int(row[1]), int(row[2]))
            except (IndexError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    if not counts:
        raise TraceFormatError(f"{path}:1: the counts table is empty")
    return counts


def _matrix_rows(values: dict[tuple[int, int], float], max_size: int):
    header = ["i\\j"] + [str(j) for j in range(2, max_size + 1)]
    rows = []
    for i in range(1, max_size):
        row = [str(i)]
        for j in range(2, max_size + 1):
            row.append(_cell(values[(i, j)]) if (i, j) in values else "")
        rows.append(row)
    return header, rows


def cmd_analyze(args) -> int:
    cfg = RunConfig.from_sources(
        args.config,
        permutations=args.permutations,
        seed=args.seed,
        matrix_max_size=args.max_size,
        tau_min_hours=args.tau_min,
        tz_offset_minutes=args.tz_offset_minutes,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {}
    lines: list[str] = []

    if args.counts:
        counts = _load_counts(args.counts)
        records = None
    else:
        if not args.trace or not args.graph:
            raise ValueError("either --counts or both a trace and a graph are required")
        if bool(args.user) == bool(args.all):
            raise ValueError("exactly one of --user or --all is required")
        trace = load_trace(args.trace, tz_offset_minutes=cfg.tz_offset_minutes)
        graph = load_graph(args.graph)
        users = [args.user] if args.user else list(graph.users())
        records = []
        for user in users:
            records.extend(extract_clusters(reconstruct_timeline(user, graph, trace)))
        counts = reaction_counts(records)

    probs = reaction_prob_by_size(counts)
    stats_rows = [
        (bucket_name(b), counts[b][0], counts[b][1], _cell(probs[b]))
        for b in sorted(counts)
    ]
    _write_csv(
        out_dir / "cluster_stats.csv", ["size", "reactions", "total", "probability"], stats_rows
    )
    lines.append(f"wrote {out_dir / 'cluster_stats.csv'}")
    report["cluster_stats"] = {bucket_name(b): probs[b] for b in sorted(probs)}

    max_size = cfg.matrix_max_size
    t_obs: dict[tuple[int, int], float] = {}
    p_values: dict[tuple[int, int], float] = {}
    for i in range(1, max_size):
        for j in range(i + 1, max_size + 1):
            if i in counts and j in counts:
                t_obs[(i, j)] = difference_statistic(counts, i, j)
                p_values[(i, j)] = permutation_test(
                    counts, i, j, cfg.permutations, cfg.seed
                ).p_value
    header, rows = _matrix_rows(t_obs, max_size)
    _write_csv(out_dir / "t_obs.csv", header, rows)
    header, rows = _matrix_rows(p_values, max_size)
    _write_csv(out_dir / "p_values.csv", header, rows)
    lines.append(f"wrote {out_dir / 't_obs.csv'}")
    lines.append(f"wrote {out_dir / 'p_values.csv'}")
    report["t_obs"] = {f"{i},{j}": v for (i, j), v in sorted(t_obs.items())}
    report["p_values"] = {f"{i},{j}": v for (i, j), v in sorted(p_values.items())}

    if records is not None:
        by_pos = reaction_prob_by_size_position(records)
        _write_csv(
            out_dir / "reaction_by_size_position.csv",
            ["size", "position", "probability"],
            [
                (bucket_name(b), k, _cell(p))
                for (b, k), p in sorted(by_pos.items())
            ],
        )
        lines.append(f"wrote {out_dir / 'reaction_by_size_position.csv'}")

        taus: list[float] = []
        for user in trace.users():
            events = trace.events_by_user(user)
            if len(events) >= 2:
                taus.extend(interevent_times(events))
        if taus:
            edges = np.geomspace(min(taus), max(taus) * (1 + 1e-12), 31)
            hist, _ = np.histogram(taus, bins=edges)
            _write_csv(
                out_dir / "interevent_histogram.csv",
                ["bin_left_hours", "bin_right_hours", "count"],
                [
                    (_cell(float(edges[k])), _cell(float(edges[k + 1])), int(hist[k]))
                    for k in range(len(hist))
                ],
            )
            lines.append(f"wrote {out_dir / 'interevent_histogram.csv'}")
        try:
            alpha = powerlaw_alpha(taus, cfg.tau_min_hours)
            report["powerlaw_alpha"] = alpha
            lines.append(f"power-law exponent (tau >= {cfg.tau_min_hours}h): {alpha:.4f}")
        except ValueError:
            lines.append("power-law exponent: n/a (too few inter-event samples)")

    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------- wiring


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
    p.add_argument("producer", help="producer user id")
    p.add_argument("-o", "--out", required=True, help="output instance JSON path")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tz-offset-minutes", type=int, default=None)
    p.add_argument("--gap-hours", type=float, default=None)
    p.add_argument("--gamma-mode", choices=("one", "reaction-rate"), default=None)
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
    p.add_argument("--method", choices=("marginal", "brute", "multistart"), default=None)
    p.add_argument("--heuristic", choices=HEURISTICS, default=None)
    p.add_argument("--spend", type=int, default=None, help="posts for --heuristic")
    p.add_argument("--activity", default=None, help="per-slot weights CSV for peak")
    p.add_argument("--initial", default=None, help="initial schedule JSON for marginal")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="enumeration cap for brute")
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
    p.add_argument("--user", default=None, help="analyze one user's timeline")
    p.add_argument("--all", action="store_true", help="analyze every user's timeline")
    p.add_argument("--counts", default=None, help="size,reactions,total CSV instead of a trace")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.add_argument("--permutations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None, help="largest size in the matrices")
    p.add_argument("--tau-min", type=float, default=None, help="power-law tail cutoff, hours")
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
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TraceFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
