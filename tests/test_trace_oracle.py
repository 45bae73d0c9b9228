"""The columnar trace reader and every trace consumer against the reader and
consumers they replaced (`reference_trace.py`), compared with `==`.

Each case loads one trace file twice, with `formats.load_trace` and with the
reference reader, and requires the same events, users, timestamps, window,
attached reactions, instances, timelines and inter-event times, and the same
files and exponent from `analyze --all` as the reference timelines give. The
traces are three from `perfbench.generators.trace_and_graph` and hand-built
ones with equal timestamps, an empty user name, reactions to users without
events, and timestamps at both int64 ends.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
import reference_trace as ref

from feedsched import (
    ActivityTrace,
    Event,
    FollowGraph,
    bucket_name,
    build_instance,
    extract_clusters,
    interevent_times,
    permutation_test,
    powerlaw_alpha,
    reaction_counts,
    reaction_prob_by_size,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from feedsched.cli import main
from feedsched.formats import load_trace
from perfbench import generators

MIN, MAX = -(2**63), 2**63 - 1

# The generator sizes of `test_trace_pins.py`.
GENERATED = {
    0: dict(followers=12, competitors=8, followees=4, days=5),
    1: dict(followers=20, competitors=6, followees=3, days=4),
    2: dict(followers=8, competitors=10, followees=5, days=7),
}
# 8 h never splits a generated login and 0.004 h does; the last three sit at
# and around a gap of 2**64 seconds, where an int64 or float gap goes wrong.
GAPS = (8.0, 0.004, (2**64 - 4096) / 3600, 2**64 / 3600, 1e300)


def write_trace(path, events) -> None:
    generators.write_trace(path, [
        {k: v for k, v in vars(ev).items() if v is not None} for ev in events
    ])


def both_readers(tmp_path, events, tz_offset_minutes=0):
    path = tmp_path / "trace.jsonl"
    write_trace(path, events)
    return (
        load_trace(path, tz_offset_minutes),
        ref.load_trace(path, tz_offset_minutes),
    )


def assert_same_trace(new, old, graph) -> None:
    assert len(new) == len(old)
    assert new.events == old.events
    assert new.users() == old.users()
    assert new.window_days() == old.window_days()
    names = set(old.users()) | set(graph.users()) | {"ghost"}
    for user in sorted(names):
        assert new.events_by_user(user) == old.events_by_user(user)
        assert new.timestamps(user).dtype == np.int64
        assert new.timestamps(user).tolist() == old.timestamps(user).tolist()
        for authors in (graph.followees_of(user), sorted(names), ["ghost"]):
            assert ref.attached_reactions(new, user, authors) == old.attached_reactions(
                user, authors
            )
        if len(old.events_by_user(user)) >= 2:
            assert interevent_times(new.timestamps(user)) == ref.interevent_times(
                old.events_by_user(user)
            )
    everyone = sorted(names)
    assert new.timestamps(*everyone).tolist() == old.timestamps(*everyone).tolist()


def assert_same_consumers(new, old, graph, producer) -> None:
    for gap_hours in GAPS:
        for gamma_mode in ("one", "reaction-rate"):
            kwargs = dict(gap_hours=gap_hours, gamma_mode=gamma_mode)
            got = build_instance(producer, graph, new, 24, 6, **kwargs)
            assert got == ref.build_instance(producer, graph, old, 24, 6, **kwargs)
    for user in graph.users():
        timeline = reconstruct_timeline(user, graph, new)
        expected = ref.reconstruct_timeline(user, graph, old)
        assert timeline == expected
        for column in ("ts", "code", "index", "reacted"):
            assert getattr(timeline, column).tolist() == getattr(expected, column).tolist()


# `analyze --all`'s settings, as `assert_same_analysis` passes them.
PERMUTATIONS, MAX_SIZE, TAU_MIN = 50, 4, 0.01


def expected_analysis(old, graph) -> tuple[dict, float | None]:
    """Every file of `analyze --all` as rows of cells, and the power-law
    exponent (None without enough gaps), from the reference trace: each user's
    reference timeline goes through the plain-record path, `TimelinePost`
    lists to `ClusterRecord`s, and the gaps come from `ref.interevent_times`."""
    records = []
    for user in graph.users():
        records.extend(extract_clusters(list(ref.reconstruct_timeline(user, graph, old))))
    counts = reaction_counts(records)
    probs = reaction_prob_by_size(counts)
    by_position = reaction_prob_by_size_position(records)
    files = {
        "cluster_stats.csv": [["size", "reactions", "total", "probability"]]
        + [[bucket_name(b), *counts[b], probs[b]] for b in sorted(counts)],
        "reaction_by_size_position.csv": [["size", "position", "probability"]]
        + [[bucket_name(b), k, p] for (b, k), p in by_position.items()],
    }
    sizes = [b for b in range(1, MAX_SIZE + 1) if b in counts]
    tests = {
        (i, j): permutation_test(counts, i, j, PERMUTATIONS, 0)
        for i in sizes for j in sizes if i < j
    }
    columns = range(2, MAX_SIZE + 1)
    for name, field in (("t_obs.csv", "t_obs"), ("p_values.csv", "p_value")):
        files[name] = [["i\\j"] + [bucket_name(j) for j in columns]] + [
            [bucket_name(i)] + [getattr(tests.get((i, j)), field, "") for j in columns]
            for i in range(1, MAX_SIZE)
        ]
    taus = [
        t for u in old.users() if len(old.events_by_user(u)) >= 2
        for t in ref.interevent_times(old.events_by_user(u))
    ]
    if taus:
        edges = np.geomspace(min(taus), max(taus) * (1 + 1e-12), 31)
        hist, _ = np.histogram(taus, bins=edges)
        files["interevent_histogram.csv"] = [["bin_left_hours", "bin_right_hours", "count"]] + [
            [float(edges[k]), float(edges[k + 1]), int(hist[k])] for k in range(len(hist))
        ]
    try:
        alpha = powerlaw_alpha(taus, TAU_MIN)
    except ValueError:
        alpha = None
    return {name: [list(map(str, row)) for row in rows] for name, rows in files.items()}, alpha


def assert_same_analysis(tmp_path, capsys, edges, tz_offset_minutes=0):
    """`analyze --all` of `tmp_path / "trace.jsonl"` against the reference
    timelines of that file: the same files, cell by cell, and the same
    exponent. Returns the exponent."""
    trace_path, graph_path = tmp_path / "trace.jsonl", tmp_path / "graph.csv"
    out = tmp_path / "out"
    generators.write_graph(graph_path, edges)
    rc = main([
        "analyze", str(trace_path), str(graph_path), "--all", "-o", str(out), "--json",
        "--permutations", str(PERMUTATIONS), "--max-size", str(MAX_SIZE),
        "--tau-min", str(TAU_MIN), "--tz-offset-minutes", str(tz_offset_minutes),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    old = ref.load_trace(trace_path, tz_offset_minutes)
    files, alpha = expected_analysis(old, FollowGraph(edges))
    written = {}
    for path in sorted(out.iterdir()):
        with path.open(newline="", encoding="utf-8") as fh:
            written[path.name] = list(csv.reader(fh))
    assert written == files
    assert report.get("powerlaw_alpha") == alpha
    return alpha


@pytest.mark.parametrize("seed", sorted(GENERATED))
@pytest.mark.parametrize("tz_offset_minutes", [0, -300])
def test_generated_traces_agree(tmp_path, seed, tz_offset_minutes):
    raw, edges = generators.trace_and_graph(seed, **GENERATED[seed])
    new, old = both_readers(tmp_path, [Event(**ev) for ev in raw], tz_offset_minutes)
    graph = FollowGraph(edges)
    assert_same_trace(new, old, graph)
    assert_same_consumers(new, old, graph, generators.PRODUCER)


def hand_events():
    """Equal timestamps within and across users, an empty user name, a
    reaction to a user without events, one before any target event and one
    to a user the reacting user does not follow."""
    return [
        Event("p", 50, "post"),
        Event("", 50, "post"),
        Event("p", 50, "post"),
        Event("f", 50, "retweet", "p"),  # the later of the two p@50
        Event("f", 10, "reply", "p"),  # before any p event: left out
        Event("f", 50, "reply", "g"),
        Event("f", 50, "retweet", "nobody"),
        Event("", 20, "post"),
        Event("g", 7200, "post"),
        Event("g", 7200, "reply", "p"),
        Event("p", 3600, "post"),
    ]


HAND_EDGES = [("f", "p"), ("f", ""), ("g", "p"), ("g", "f"), ("", "p"), ("h", "p")]


def test_hand_built_trace_agrees(tmp_path):
    events = hand_events()
    graph = FollowGraph(HAND_EDGES)
    new, old = both_readers(tmp_path, events)
    assert_same_trace(new, old, graph)
    assert_same_consumers(new, old, graph, "p")
    # A trace built from `Event`s takes the same path from the same columns.
    built = ActivityTrace(events)
    assert_same_trace(built, ref.ActivityTrace(events), graph)
    assert_same_consumers(built, ref.ActivityTrace(events), graph, "p")


def test_empty_trace_agrees():
    new, old = ActivityTrace([]), ref.ActivityTrace([])
    assert new.events == old.events == ()
    assert new.users() == old.users() == ()
    assert len(new) == len(old) == 0
    assert new.timestamps("a").tolist() == new.timestamps().tolist() == []
    assert ref.attached_reactions(new, "a", ["b"]) == []
    with pytest.raises(ValueError, match="empty"):
        new.window_days()


def int64_end_events():
    """Timestamps at both int64 ends. Follower `g` starts its second session
    (the one at MAX, slot 15) in an earlier slot than its first (slot 18), so a
    wrapped gap, which merges the two sessions, moves its login slot."""
    events = []
    for k in range(6):
        author = f"a{k}"
        events += [Event(author, MIN, "post"), Event(author, MIN + 5 * k, "post")]
        events += [Event(author, t, "post") for t in (0, MAX, MAX)]
    events += [
        Event("f", MIN, "retweet", "a0"),
        Event("f", MAX, "reply", "a1"),
        Event("f", MAX, "retweet", "p"),
        Event("f", 0, "post"),
        Event("p", MIN, "post"),
        Event("p", MAX, "post"),
        Event("g", MIN + 10 * 3600, "post"),
        Event("g", MAX, "retweet", "p"),
    ]
    return events


INT64_EDGES = [("f", f"a{k}") for k in range(6)] + [("f", "p"), ("g", "p"), ("g", "a0")]


def test_int64_ends_agree(tmp_path):
    graph = FollowGraph(INT64_EDGES)
    new, old = both_readers(tmp_path, int64_end_events())
    assert_same_trace(new, old, graph)
    assert_same_consumers(new, old, graph, "p")
    attached = [(0, "a0", 1), (2, "a1", 4), (3, "p", 1)]
    assert ref.attached_reactions(new, "f", graph.followees_of("f")) == attached
    sigma = {p.id: p.sigma for p in build_instance("p", graph, new, 24, 6).followers}
    assert sigma == {"f": 8, "g": 15}


def test_int64_ends_through_analyze(tmp_path, capsys):
    trace_path, graph_path = tmp_path / "trace.jsonl", tmp_path / "graph.csv"
    out = tmp_path / "out"
    write_trace(trace_path, int64_end_events())
    generators.write_graph(graph_path, INT64_EDGES)
    rc = main([
        "analyze", str(trace_path), str(graph_path), "--all", "-o", str(out),
        "--tau-min", "1", "--permutations", "10", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)

    old = ref.load_trace(trace_path)
    taus = [t for u in old.users() for t in ref.interevent_times(old.events_by_user(u))]
    assert max(taus) == float(2**64 - 1) / 3600.0
    assert report["powerlaw_alpha"] == powerlaw_alpha(taus, 1.0)
    edges = np.geomspace(min(taus), max(taus) * (1 + 1e-12), 31)
    hist, _ = np.histogram(taus, bins=edges)
    expected = [
        [repr(float(edges[k])), repr(float(edges[k + 1])), str(int(hist[k]))]
        for k in range(len(hist))
    ]
    with (out / "interevent_histogram.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected


@pytest.mark.parametrize("seed", sorted(GENERATED))
@pytest.mark.parametrize("tz_offset_minutes", [0, -300])
def test_generated_traces_through_analyze(tmp_path, capsys, seed, tz_offset_minutes):
    raw, edges = generators.trace_and_graph(seed, **GENERATED[seed])
    write_trace(tmp_path / "trace.jsonl", [Event(**ev) for ev in raw])
    assert assert_same_analysis(tmp_path, capsys, edges, tz_offset_minutes) is not None


def test_hand_built_trace_through_analyze(tmp_path, capsys):
    write_trace(tmp_path / "trace.jsonl", hand_events())
    # A graph file has no empty names; the empty name's posts stay in the trace.
    edges = [(a, b) for a, b in HAND_EDGES if a and b]
    # Three positive gaps: too few for an exponent.
    assert assert_same_analysis(tmp_path, capsys, edges) is None


def test_int64_ends_through_analyze_agree(tmp_path, capsys):
    write_trace(tmp_path / "trace.jsonl", int64_end_events())
    assert assert_same_analysis(tmp_path, capsys, INT64_EDGES) is not None
