"""On-disk formats: activity-trace JSONL, follow-graph CSV, and the JSON
encodings of problem instances and schedules.

Trace files carry one event object per line with fields ``user``, ``ts``,
``kind`` and (for reactions) ``target_author``. Graph files are CSV with the
header ``follower,followee``. Instance and schedule JSON mirror the domain
types field for field; emission is deterministic (sorted keys, two-space
indent, trailing newline).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .estimate import ActivityTrace, Event, FollowGraph
from .model import FollowerProfile, ProblemInstance, Schedule

__all__ = [
    "TraceFormatError",
    "load_trace",
    "load_graph",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "dump_json",
    "load_json",
]


class TraceFormatError(ValueError):
    """Raised on malformed input files; the message names file and line."""


def load_trace(path, tz_offset_minutes: int = 0) -> ActivityTrace:
    path = Path(path)
    events = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise TraceFormatError(f"{path}:{lineno}: expected a JSON object")
            try:
                events.append(
                    Event(
                        user=str(obj["user"]),
                        ts=int(obj["ts"]),
                        kind=str(obj["kind"]),
                        target_author=obj.get("target_author"),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    if not events:
        raise TraceFormatError(f"{path}:1: the trace file contains no events")
    return ActivityTrace(events, tz_offset_minutes=tz_offset_minutes)


def load_graph(path) -> FollowGraph:
    path = Path(path)
    edges = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["follower", "followee"]:
            raise TraceFormatError(
                f"{path}:1: expected the header 'follower,followee', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2 or not row[0].strip() or not row[1].strip():
                raise TraceFormatError(
                    f"{path}:{lineno}: expected two non-empty columns, got {row!r}"
                )
            edges.append((row[0].strip(), row[1].strip()))
    return FollowGraph(edges)


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "slots": instance.slots,
        "budget": instance.budget,
        "follower_survival_family": instance.follower_survival_family,
        "cluster_survival_family": instance.cluster_survival_family,
        "follower_survival_p": instance.follower_survival_p,
        "cluster_survival_p": instance.cluster_survival_p,
        "cluster_survival_shifted": instance.cluster_survival_shifted,
        "followers": [
            {
                "id": f.id,
                "sigma": f.sigma,
                "rho": f.rho,
                "delta": f.delta,
                "gamma": f.gamma,
                "competitor_load": list(f.competitor_load),
            }
            for f in instance.followers
        ],
    }


def instance_from_dict(obj: dict) -> ProblemInstance:
    try:
        followers = tuple(
            FollowerProfile(
                id=str(f["id"]),
                sigma=int(f["sigma"]),
                rho=float(f["rho"]),
                delta=float(f["delta"]),
                gamma=float(f.get("gamma", 1.0)),
                competitor_load=tuple(float(c) for c in f["competitor_load"]),
            )
            for f in obj["followers"]
        )
        return ProblemInstance(
            slots=int(obj["slots"]),
            budget=int(obj["budget"]),
            followers=followers,
            follower_survival_family=obj.get("follower_survival_family", "geometric"),
            cluster_survival_family=obj.get("cluster_survival_family", "geometric"),
            follower_survival_p=float(obj.get("follower_survival_p", 1.0)),
            cluster_survival_p=float(obj.get("cluster_survival_p", 1.0)),
            cluster_survival_shifted=bool(obj.get("cluster_survival_shifted", True)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"posts": list(schedule.posts)}


def schedule_from_dict(obj: dict) -> Schedule:
    try:
        return Schedule(tuple(int(v) for v in obj["posts"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schedule JSON: {exc}") from exc


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    path = Path(path)

    def reject_constant(name: str):
        raise ValueError(f"{path}: non-finite number {name} is not allowed")

    try:
        obj = json.loads(path.read_text(), parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return obj
