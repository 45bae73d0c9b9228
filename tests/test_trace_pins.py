"""Estimates and count tables of generated traces, pinned bit for bit.

`tests/data/trace_pins.json` holds, for three small traces from
`perfbench.generators.trace_and_graph`, the instance `build_instance` makes
under every pinned (gap_hours, tz_offset_minutes) pair and the count tables of
every user's reconstructed timeline. The values were recorded before the trace
rules moved onto per-user timestamp arrays and are compared with `==`, so a
rewrite of a trace rule that moves any bit of an estimate or a count fails
here. The pipeline fingerprints check only population means, to 1e-9.

Re-record only when a rule is meant to change:
``python -c "import tests.test_trace_pins as t; t.record()"`` from the
repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from feedsched import (
    ActivityTrace,
    ClusterMember,
    ClusterRecord,
    Event,
    FollowGraph,
    TimelinePost,
    build_instance,
    extract_clusters,
    reaction_counts,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from feedsched.cli import main
from feedsched.formats import instance_to_dict
from perfbench import generators

PINS_PATH = Path(__file__).parent / "data" / "trace_pins.json"

# Generator sizes per seed: small enough to run in well under a second each.
TRACES = {
    "0": dict(followers=12, competitors=8, followees=4, days=5),
    "1": dict(followers=20, competitors=6, followees=3, days=4),
    "2": dict(followers=8, competitors=10, followees=5, days=7),
}
# 8 h and 0.5 h never split one generated login; 0.004 h (14.4 s) does.
GAPS = (8.0, 0.5, 0.004)
TZ_OFFSETS = (0, -300)


def _trace_and_graph(seed: str, tz_offset_minutes: int = 0):
    events, edges = generators.trace_and_graph(int(seed), **TRACES[seed])
    trace = ActivityTrace([Event(**ev) for ev in events], tz_offset_minutes)
    return trace, FollowGraph(edges)


def _instance(seed: str, gap_hours: float, tz_offset_minutes: int) -> dict:
    trace, graph = _trace_and_graph(seed, tz_offset_minutes)
    instance = build_instance(
        generators.PRODUCER, graph, trace, 24, 24,
        gap_hours=gap_hours, gamma_mode="reaction-rate",
    )
    return instance_to_dict(instance)


def _count_tables(seed: str, path: str = "columnar") -> dict:
    """The count tables of every user's timeline, tallied from the per-user
    columnar cluster results (as `cli analyze` passes them) or from one flat
    list of `ClusterRecord`s."""
    trace, graph = _trace_and_graph(seed)
    clusters = [extract_clusters(reconstruct_timeline(u, graph, trace)) for u in graph.users()]
    records = clusters if path == "columnar" else [r for c in clusters for r in c]
    return {
        "reaction_counts": {str(b): list(rt) for b, rt in reaction_counts(records).items()},
        "by_size_position": {
            f"{b},{k}": p for (b, k), p in reaction_prob_by_size_position(records).items()
        },
    }


def _instance_key(seed: str, gap_hours: float, tz_offset_minutes: int) -> str:
    return f"seed={seed} gap_hours={gap_hours} tz={tz_offset_minutes}"


def record() -> None:
    """Write the current outputs to `tests/data/trace_pins.json`."""
    pins = {
        "instances": {
            _instance_key(s, g, tz): _instance(s, g, tz)
            for s in TRACES for g in GAPS for tz in TZ_OFFSETS
        },
        "count_tables": {s: _count_tables(s) for s in TRACES},
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("tz_offset_minutes", TZ_OFFSETS)
@pytest.mark.parametrize("gap_hours", GAPS)
@pytest.mark.parametrize("seed", sorted(TRACES))
def test_instance_is_pinned(seed, gap_hours, tz_offset_minutes):
    expected = PINS["instances"][_instance_key(seed, gap_hours, tz_offset_minutes)]
    assert _instance(seed, gap_hours, tz_offset_minutes) == expected


@pytest.mark.parametrize("seed", sorted(TRACES))
def test_count_tables_are_pinned(seed):
    assert _count_tables(seed) == PINS["count_tables"][seed]


@pytest.mark.parametrize("seed", sorted(TRACES))
def test_count_tables_from_cluster_records_are_pinned(seed):
    assert _count_tables(seed, "records") == PINS["count_tables"][seed]


class _Constructed(Exception):
    pass


def test_analyze_all_builds_no_post_or_cluster_objects(monkeypatch, tmp_path, data_dir):
    """`analyze --all` reads timelines and clusters as columns only."""
    def refuse(self, *args, **kwargs):
        raise _Constructed(type(self).__name__)

    for cls in (TimelinePost, ClusterMember, ClusterRecord):
        monkeypatch.setattr(cls, "__init__", refuse)
        with pytest.raises(_Constructed):
            cls()
    argv = [
        "analyze", str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv"),
        "--all", "-o", str(tmp_path), "--permutations", "20",
    ]
    assert main(argv) == 0
    assert (tmp_path / "reaction_by_size_position.csv").exists()


def test_pins_tell_the_settings_apart():
    """Every pinned setting moves some estimate, so none of them is idle."""
    for seed in TRACES:
        by_gap = [PINS["instances"][_instance_key(seed, g, 0)] for g in GAPS]
        by_tz = [PINS["instances"][_instance_key(seed, 8.0, tz)] for tz in TZ_OFFSETS]
        assert by_gap[0] != by_gap[2] and by_tz[0] != by_tz[1]
