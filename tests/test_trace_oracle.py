"""The columnar trace reader and every trace consumer against the reader and
consumers they replaced (`reference_trace.py`), compared with `==`.

Each case loads one trace file twice, with `formats.load_trace` and with the
reference reader, and requires the same events, users, timestamps, window,
attached reactions, instances, timelines and inter-event times. The traces are
three from `perfbench.generators.trace_and_graph` and hand-built ones with
equal timestamps, an empty user name, reactions to users without events, and
timestamps at both int64 ends.
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
    build_instance,
    interevent_times,
    powerlaw_alpha,
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
