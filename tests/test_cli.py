"""End-to-end command-line behaviour: formats, exit codes, determinism."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference_trace

from feedsched import (
    ActivityTrace,
    Event,
    FollowerProfile,
    FollowGraph,
    ProblemInstance,
    Schedule,
    build_instance,
    cluster_attention,
    multistart,
    reconstruct_timeline,
    timeline_view,
)
from feedsched import cli, formats
from feedsched.cli import main
from feedsched.estimate import _event_error
from feedsched.formats import (
    TraceFormatError,
    dump_json,
    from_json,
    instance_from_dict,
    instance_to_dict,
    load_activity,
    load_counts,
    load_graph,
    load_json,
    load_trace,
    schedule_to_dict,
)
from feedsched.objective import TimelineLayout
from perfbench import generators

from conftest import family_instance


# The second line of a trace file, after `{"user": "a", `, and the field its
# error names.
MALFORMED_FIELDS = [
    ('"ts": 1.9, "kind": "post"', "ts"),
    ('"ts": true, "kind": "post"', "ts"),
    ('"ts": 1e30, "kind": "post"', "ts"),
    ('"ts": 1234567890123456789012345, "kind": "post"', "ts"),
    ('"ts": Infinity, "kind": "post"', "ts"),
    ('"ts": NaN, "kind": "post"', "ts"),
    ('"ts": 1, "kind": "post", "user": null', "user"),
    ('"ts": 1, "kind": 3', "kind"),
    ('"ts": 1, "kind": "retweet", "target_author": 5', "target_author"),
]


@pytest.fixture
def hand_files(tmp_path, hand_instance, hand_schedule):
    instance_path = tmp_path / "instance.json"
    schedule_path = tmp_path / "schedule.json"
    dump_json(instance_to_dict(hand_instance), instance_path)
    dump_json(schedule_to_dict(hand_schedule), schedule_path)
    return instance_path, schedule_path


def read_csv(path):
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


class TestEstimateCommand:
    def test_golden_instance_bytes(self, tmp_path, data_dir):
        out = tmp_path / "instance.json"
        rc = main(
            [
                "estimate",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "prod",
                "-o",
                str(out),
                "--budget",
                "6",
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (data_dir / "pop_small.instance.json").read_bytes()

    def test_population_summary(self, tmp_path, data_dir, capsys):
        out = tmp_path / "instance.json"
        rc = main(
            [
                "estimate",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "prod",
                "-o",
                str(out),
                "--budget",
                "6",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "followers: 3" in captured
        assert "mean rho: 0.333333" in captured

    def test_missing_producer_exits_3(self, tmp_path, data_dir, capsys):
        rc = main(
            [
                "estimate",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "nobody",
                "-o",
                str(tmp_path / "x.json"),
                "--budget",
                "6",
            ]
        )
        assert rc == 3
        assert "nobody" in capsys.readouterr().err

    def test_empty_trace_exits_2(self, tmp_path, data_dir):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(
            [
                "estimate",
                str(empty),
                str(data_dir / "pop_small.graph.csv"),
                "prod",
                "-o",
                str(tmp_path / "x.json"),
                "--budget",
                "6",
            ]
        )
        assert rc == 2

    def test_malformed_trace_names_line(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"user": "a", "ts": 1, "kind": "post"}\nnot json\n')
        rc = main(
            [
                "estimate",
                str(bad),
                str(data_dir / "pop_small.graph.csv"),
                "prod",
                "-o",
                str(tmp_path / "x.json"),
                "--budget",
                "6",
            ]
        )
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field", MALFORMED_FIELDS)
    def test_malformed_trace_field_names_line(self, tmp_path, data_dir, line, field, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"user": "a", "ts": 1, "kind": "post"}\n{"user": "a", ' + line + "}\n")
        rc = main(
            [
                "estimate", str(bad), str(data_dir / "pop_small.graph.csv"), "prod",
                "-o", str(tmp_path / "x.json"), "--budget", "6",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2 and f"{bad}:2: {field} must be" in err
        assert not (tmp_path / "x.json").exists()

    def test_missing_budget_exits_2(self, tmp_path, data_dir):
        rc = main(
            [
                "estimate",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "prod",
                "-o",
                str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2


GOOD_LINE = '{"user": "a", "ts": 1, "kind": "post"}\n'


def oracle_breakdown(instance, schedule) -> bytes:
    """The `evaluate --breakdown` CSV built from `timeline_view` and
    `cluster_attention`, one row per follower and timeline position, floats
    written with `repr`."""
    kwargs = dict(
        follower_family=instance.follower_survival_family,
        follower_p=instance.follower_survival_p,
        cluster_family=instance.cluster_survival_family,
        cluster_p=instance.cluster_survival_p,
        cluster_shifted=instance.cluster_survival_shifted,
    )
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "follower_id", "cluster_position", "source_slot", "producer_count",
            "competitor_above", "depth_offset", "attention",
        ]
    )
    for f in instance.followers:
        for view in timeline_view(schedule, f):
            writer.writerow(
                [
                    f.id, view.position, view.source_slot, view.producer_count,
                    repr(view.competitor_above), repr(view.depth_offset),
                    repr(cluster_attention(view, f, **kwargs)),
                ]
            )
    return out.getvalue().encode()


class TestTraceReader:
    """`load_trace` decodes one JSON value per line and takes it straight when
    it plainly obeys the rules of `Event`; any bad line is named as the
    reference reader (one `Event` per line) names it, with the same message."""

    def estimate(self, trace, data_dir, tmp_path):
        return main(
            [
                "estimate", str(trace), str(data_dir / "pop_small.graph.csv"), "prod",
                "-o", str(tmp_path / "x.json"), "--budget", "6",
            ]
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [
            # Joined with commas into one JSON list, these two lines read as two
            # valid events: the first merges into the second, which splits in two.
            ('{"user": "a", "ts": 1, "kind": "post"\n'
             '"x": 0}, {"user": "b", "ts": 2, "kind": "post"}\n', 1),
            (GOOD_LINE + GOOD_LINE.strip() + " " + GOOD_LINE, 2),
            (GOOD_LINE + GOOD_LINE.strip() + ", " + GOOD_LINE, 2),
            # A field error on line 3 comes before a JSON error on line 5.
            (GOOD_LINE * 2 + '{"user": "a", "ts": "3", "kind": "post"}\n'
             + GOOD_LINE + "{oops\n", 3),
            # Blank lines are skipped but counted.
            ("\n\n  \n" + GOOD_LINE + "\n[1]\n", 6),
            (GOOD_LINE + '"just a string"\n', 2),
            (GOOD_LINE + '{"user": "a", "kind": "post"}\n', 2),
            (GOOD_LINE + '{"user": "a", "ts": 2, "kind": "reply", "target_author": ""}\n', 2),
            (GOOD_LINE + '{"user": "a", "ts": 2, "kind": "post", "target_author": "b"}\n', 2),
            (GOOD_LINE + '{"user": "a", "ts": 9223372036854775808, "kind": "post"}\n', 2),
        ],
    )
    def test_first_bad_line_named_as_the_reference_names_it(
        self, tmp_path, data_dir, capsys, text, lineno
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        with pytest.raises(TraceFormatError) as expected:
            reference_trace.load_trace(bad)
        assert str(expected.value).startswith(f"{bad}:{lineno}: ")
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == str(expected.value)
        assert self.estimate(bad, data_dir, tmp_path) == 2
        assert str(expected.value) in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "line",
        [
            b'{"user": "a\xff", "ts": 2, "kind": "post"}\n',
            b'{"user": "a", "ts": 2, "kind": "post", "l\xffang": "en"}\n',
        ],
        ids=["user", "ignored-key"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, data_dir, capsys, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(GOOD_LINE.encode() + line + GOOD_LINE.encode())
        message = f"{bad}:2: invalid UTF-8 byte 0xff"
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == message
        assert self.estimate(bad, data_dir, tmp_path) == 2
        assert message in capsys.readouterr().err
        argv = ["analyze", str(bad), str(data_dir / "pop_small.graph.csv"), "--all"]
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_bad_last_line_of_a_large_file_is_named(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "big.jsonl"
        bad.write_text(GOOD_LINE * 19_999 + GOOD_LINE.replace("}", ""))
        assert self.estimate(bad, data_dir, tmp_path) == 2
        assert f"{bad}:20000: invalid JSON (Expecting ',' delimiter)" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field", MALFORMED_FIELDS)
    def test_each_field_error_named_as_the_reference_names_it(self, tmp_path, line, field):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(GOOD_LINE + '{"user": "a", ' + line + "}\n")
        with pytest.raises(TraceFormatError) as expected:
            reference_trace.load_trace(bad)
        assert str(expected.value).startswith(f"{bad}:2: {field} must be")
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == str(expected.value)

    def test_random_lines_judged_as_the_reference_judges_them(self, tmp_path):
        """Lines built from a pool of field values, each after one good line:
        `load_trace` accepts exactly the lines the reference accepts, with the
        same events, and otherwise raises the reference's message."""
        rng = np.random.default_rng(13)
        missing = object()
        pool = [
            "a", "", "é名", 0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, True, False,
            1.5, 1e30, math.inf, None, [], ["a"], {}, {"user": "a"}, missing,
        ]
        plausible = {
            "user": ["a", "b", "é名"],
            "ts": [0, 1, 2**63 - 1, -(2**63)],
            "kind": ["post", "retweet", "reply", "like"],
            "target_author": ["b", "é名", None, missing],
        }
        path = tmp_path / "trace.jsonl"
        accepted = 0
        for _ in range(2000):
            obj = {}
            for key, good in plausible.items():
                options = good if rng.random() < 0.75 else pool
                value = options[rng.integers(len(options))]
                if value is not missing:
                    obj[key] = value
            for _ in range(rng.integers(3)):
                obj[f"x{rng.integers(3)}"] = pool[rng.integers(len(pool) - 1)]
            items = list(obj.items())
            rng.shuffle(items)
            line = json.dumps(dict(items), ensure_ascii=bool(rng.integers(2)))
            path.write_text(GOOD_LINE + line + "\n", encoding="utf-8")
            try:
                expected = sorted(map(repr, reference_trace.load_trace(path).events))
            except TraceFormatError as exc:
                with pytest.raises(TraceFormatError) as got:
                    load_trace(path)
                assert str(got.value) == str(exc), line
            else:
                assert sorted(map(repr, load_trace(path).events)) == expected, line
                accepted += 1
        assert 200 < accepted < 1800

    def test_non_ascii_trace_reads_as_the_reference_reads_it(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            {"user": "émile", "ts": 5, "kind": "post"},
            {"user": "名前", "ts": 7, "kind": "reply", "target_author": "émile", "lang": "日本"},
            {"user": "a", "ts": 9, "kind": "retweet", "target_author": "名前"},
        ]
        path.write_text(
            "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in lines),
            encoding="utf-8",
        )
        expected = reference_trace.load_trace(path).events
        assert sorted(load_trace(path).events, key=repr) == sorted(expected, key=repr)
        assert load_trace(path).users() == ("a", "émile", "名前")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"user": "名前", "ts": 1, "kind": "retweet", "target_author": ""}\n')
        with pytest.raises(TraceFormatError) as expected_error:
            reference_trace.load_trace(path)
        with pytest.raises(TraceFormatError) as got:
            load_trace(path)
        assert str(got.value) == str(expected_error.value)
        assert str(got.value).startswith(f"{path}:4: retweet events must carry")

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_deeply_nested_line_exits_2(self, tmp_path, data_dir, capsys, command):
        bad = tmp_path / "deep.jsonl"
        bad.write_text(GOOD_LINE + "[" * 100_000 + "]" * 100_000 + "\n")
        message = f"{bad}:2: invalid JSON (nested too deeply)"
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == message
        if command == "estimate":
            assert self.estimate(bad, data_dir, tmp_path) == 2
        else:
            argv = ["analyze", str(bad), str(data_dir / "pop_small.graph.csv"), "--all"]
            assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_integer_past_the_digit_limit_names_its_line(
        self, tmp_path, data_dir, capsys, command
    ):
        bad = tmp_path / "long.jsonl"
        bad.write_text(GOOD_LINE + '{"user": "a", "ts": %s, "kind": "post"}\n' % ("1" * 5000))
        limit = sys.get_int_max_str_digits()
        message = f"{bad}:2: invalid JSON (integer of more than {limit} digits)"
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == message
        if command == "estimate":
            assert self.estimate(bad, data_dir, tmp_path) == 2
        else:
            argv = ["analyze", str(bad), str(data_dir / "pop_small.graph.csv"), "--all"]
            assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"user": "a", "ts": 1, "kind": "post", "lang": "en", "ts_ms": 1.5}\n')
        assert load_trace(path).events == (Event("a", 1, "post"),)

    def test_names_differing_by_a_trailing_nul_stay_apart(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [("a", 3600, "f"), ("a\u0000", 7 * 3600, "g"), ("a", 7200, "f"), ("x", 60, "a")]
        path.write_text("".join(
            json.dumps({"user": u, "ts": ts, "kind": "retweet", "target_author": t}) + "\n"
            for u, ts, t in events
        ) + '{"user": "f", "ts": 0, "kind": "post"}\n{"user": "g", "ts": 0, "kind": "post"}\n')
        assert "\\u0000" in path.read_text()
        trace = load_trace(path)
        assert trace.users() == ("a", "a\x00", "f", "g", "x")
        assert trace.timestamps("a").tolist() == [3600, 7200]
        assert trace.timestamps("a\x00").tolist() == [7 * 3600]
        graph = FollowGraph(
            [("a", "f"), ("a\x00", "g"), ("x", "a"), ("x", "a\x00"), ("a", "p"), ("a\x00", "p")]
        )
        authors = {
            u: [p.author for p in reconstruct_timeline(u, graph, trace)] for u in graph.users()
        }
        assert authors["a"] == ["f"] and authors["a\x00"] == ["g"]
        assert authors["x"] == ["a\x00", "a", "a"]
        reacted = [p.reacted for p in reconstruct_timeline("a", graph, trace)]
        assert reacted == [True]
        instance = build_instance("p", graph, trace, 24, 6)
        assert [(f.id, f.sigma) for f in instance.followers] == [("a", 1), ("a\x00", 7)]


class TestOneEventRule:
    """`Event` and `load_trace` judge fields by one rule, `_event_error`, and
    `load_trace` decodes each line once."""

    @pytest.mark.parametrize(
        "line, decodes, message",
        [
            ('{"user": "a", "ts": "3", "kind": "post"}', 0,
             "ts must be an integer in the int64 range, got '3'"),
            ("{oops", 1, "invalid JSON (Expecting property name enclosed in double quotes)"),
        ],
        ids=["field-error", "json-error"],
    )
    def test_each_line_is_decoded_once(self, tmp_path, monkeypatch, line, decodes, message):
        calls = []
        loads = formats._loads

        def counting(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(formats, "_loads", counting)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(GOOD_LINE * 3 + line + "\n" + GOOD_LINE)
        with pytest.raises(TraceFormatError) as got:
            load_trace(bad)
        assert str(got.value) == f"{bad}:4: {message}"
        assert len(calls) == decodes

    def test_event_raises_exactly_the_shared_rule(self):
        """Every `MALFORMED_FIELDS` case, and every combination of the field
        values of `TestTraceReader.test_random_lines_judged_as_the_reference_judges_them`."""
        malformed = [json.loads('{"user": "a", ' + line + "}") for line, _ in MALFORMED_FIELDS]
        cases = [(o["user"], o["ts"], o["kind"], o.get("target_author")) for o in malformed]
        pool = [
            "a", "", "é名", 0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, True, False,
            1.5, 1e30, math.inf, None, [], ["a"], {}, {"user": "a"},
        ]
        plausible = [
            ["a", "b", "é名"],
            [0, 1, 2**63 - 1, -(2**63)],
            ["post", "retweet", "reply", "like"],
            ["b", "é名", None],
        ]
        cases += itertools.product(*(good + pool for good in plausible))
        accepted = 0
        for fields in cases:
            error = _event_error(*fields)
            try:
                Event(*fields)
            except ValueError as exc:
                assert str(exc) == error, fields
            else:
                assert error is None, fields
                accepted += 1
        assert 0 < accepted < len(cases)

    def test_str_subclasses_are_strings(self):
        class Name(str):
            pass

        fields = (Name("a"), 1, Name("retweet"), Name("b"))
        assert _event_error(*fields) is None
        event = Event(*fields)
        assert (event.user, event.kind, event.target_author) == ("a", "retweet", "b")
        assert type(event.user) is type(event.kind) is type(event.target_author) is Name


class TestInputFiles:
    """Every input is read as UTF-8: a byte that is not names its file and
    line. A JSON file nested too deeply to decode is a bad input, not a crash."""

    @pytest.mark.parametrize(
        "read, text",
        [
            (load_graph, "follower,followee\na,b\nc\xff,d\n"),
            (load_counts, "size,reactions,total\n1,2,10\n2,1,5\xff\n"),
            (lambda path: load_activity(path, 3), "1\r\n2\r3\xff\n"),
            (load_json, '{"slots": 3,\n"budget": 2,\n "\xff": 1}\n'),
        ],
        ids=["graph", "counts", "activity", "json"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, read, text):
        path = tmp_path / "input"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(TraceFormatError) as got:
            read(path)
        assert str(got.value) == f"{path}:3: invalid UTF-8 byte 0xff"

    def test_non_ascii_names_in_a_graph(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("follower,followee\némile,名前\n", encoding="utf-8")
        assert load_graph(path).followees_of("émile") == ("名前",)

    @pytest.mark.parametrize("which", ["instance", "schedule", "config"])
    def test_deeply_nested_json_exits_2(self, tmp_path, hand_files, capsys, which):
        instance_path, schedule_path = hand_files
        bad = tmp_path / "deep.json"
        bad.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
        message = f"{bad}: invalid JSON (nested too deeply)"
        with pytest.raises(TraceFormatError) as got:
            load_json(bad)
        assert str(got.value) == message
        argv = {
            "instance": ["evaluate", str(bad), str(schedule_path)],
            "schedule": ["evaluate", str(instance_path), str(bad)],
            "config": [
                "optimize", str(instance_path), "-o", str(tmp_path / "s.json"),
                "--method", "marginal", "--config", str(bad),
            ],
        }[which]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, hand_files, capsys):
        instance_path, _ = hand_files
        bad = tmp_path / "long.json"
        bad.write_text('{"posts": [%s, 0, 0]}\n' % ("1" * 5000))
        message = f"{bad}: invalid JSON (integer of more than {sys.get_int_max_str_digits()} digits)"
        with pytest.raises(TraceFormatError) as got:
            load_json(bad)
        assert str(got.value) == message
        assert main(["evaluate", str(instance_path), str(bad)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["instance", "config"])
    def test_a_top_level_list_exits_2(self, tmp_path, hand_files, capsys, which):
        instance_path, schedule_path = hand_files
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]\n")
        argv = {
            "instance": ["evaluate", str(bad), str(schedule_path)],
            "config": [
                "optimize", str(instance_path), "-o", str(tmp_path / "s.json"),
                "--method", "marginal", "--config", str(bad),
            ],
        }[which]
        assert main(argv) == 2
        assert f"{bad}: expected a JSON object at the top level" in capsys.readouterr().err


class TestCsvReaders:
    """The graph, counts and activity files are read by one CSV rule: the
    header where the format has one, rows with no cells or one blank cell
    skipped, and an error naming the first line of its record."""

    GRAPH, COUNTS = "follower,followee\n", "size,reactions,total\n"

    @pytest.mark.parametrize(
        "read, text, expected",
        [
            (lambda p: load_graph(p).followees_of("a"), GRAPH + "  \na,b\n\t\n", ("b",)),
            (load_counts, COUNTS + "  \n1,2,10\n\t\n", {1: (2, 10)}),
            (lambda p: load_activity(p, 2), "  \n0.5\n\t\n1\n", [0.5, 1.0]),
        ],
        ids=["graph", "counts", "activity"],
    )
    def test_a_whitespace_only_row_is_skipped(self, tmp_path, read, text, expected):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert read(path) == expected

    @pytest.mark.parametrize(
        "read, text, line, message",
        [
            (load_graph, "src,dst\na,b\n", 1,
             "expected the header 'follower,followee', got ['src', 'dst']"),
            (load_graph, GRAPH + "a,b\nc\n", 3, "expected two non-empty columns, got ['c']"),
            (load_graph, GRAPH + ",b\n", 2, "expected two non-empty columns, got ['', 'b']"),
            (load_counts, "size,total\n1,2\n", 1,
             "expected the header 'size,reactions,total', got ['size', 'total']"),
            (load_counts, "", 1, "expected the header 'size,reactions,total', got None"),
            (load_counts, COUNTS + "\n \n", 1, "the counts table is empty"),
            # Records that span lines: an error names the line its record starts on.
            (load_graph, GRAPH + '"a\nb",c\nd\n', 4, "expected two non-empty columns, got ['d']"),
            (load_graph, GRAPH + 'a,b\n"x\ny"\n', 3,
             "expected two non-empty columns, got ['x\\ny']"),
            (load_counts, COUNTS + '"1\n",2,10\n2,1\n', 4,
             "expected three columns, got ['2', '1']"),
            (lambda p: load_activity(p, 3), '1\n"2\n",y\n', 2,
             "activity weights must be finite numbers >= 0, got 'y'"),
        ],
        ids=["graph-header", "graph-row", "graph-empty-cell", "counts-header", "counts-no-header",
             "counts-empty", "graph-after-record", "graph-record", "counts-after-record",
             "activity-record"],
    )
    def test_a_bad_file_names_its_line(self, tmp_path, read, text, line, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as got:
            read(path)
        assert str(got.value) == f"{path}:{line}: {message}"

    def test_a_field_past_the_csv_size_limit_names_its_line(self, tmp_path, data_dir, capsys):
        path = tmp_path / "graph.csv"
        path.write_text("follower,followee\na,b\nc," + "d" * 200_000 + "\n")
        with pytest.raises(TraceFormatError, match=f"{path}:3: field larger than field limit"):
            load_graph(path)
        argv = ["analyze", str(data_dir / "pop_small.trace.jsonl"), str(path), "--all"]
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert f"{path}:3: field larger" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_prints_hand_total(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(["evaluate", str(instance_path), str(schedule_path)])
        assert rc == 0
        assert "attention total: 0.437500" in capsys.readouterr().out

    def test_zero_schedule(self, tmp_path, hand_files, capsys):
        instance_path, _ = hand_files
        zero = tmp_path / "zero.json"
        dump_json({"posts": [0, 0, 0]}, zero)
        rc = main(["evaluate", str(instance_path), str(zero)])
        assert rc == 0
        assert "attention total: 0.000000" in capsys.readouterr().out

    def test_wrong_length_exits_2(self, tmp_path, hand_files):
        instance_path, _ = hand_files
        bad = tmp_path / "bad.json"
        dump_json({"posts": [1, 0]}, bad)
        assert main(["evaluate", str(instance_path), str(bad)]) == 2

    def test_nan_load_in_instance_file_exits_2(self, tmp_path, hand_files, capsys):
        instance_path, schedule_path = hand_files
        obj = load_json(instance_path)
        obj["followers"][0]["competitor_load"][0] = float("nan")
        bad = tmp_path / "nan.instance.json"
        bad.write_text(json.dumps(obj))
        assert "NaN" in bad.read_text()
        assert main(["evaluate", str(bad), str(schedule_path)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "NaN" in err

    def test_invalid_lambda_exits_2_even_for_the_empty_schedule(self, tmp_path, capsys):
        follower = FollowerProfile(id="u", sigma=0, rho=0.0, delta=0.5, competitor_load=(0.0, 0.0))
        instance = ProblemInstance(
            slots=2, budget=1, followers=(follower,), follower_survival_family="exponential"
        )
        instance_path, schedule_path = tmp_path / "i.json", tmp_path / "s.json"
        dump_json(instance_to_dict(instance), instance_path)
        dump_json(schedule_to_dict(Schedule.zeros(2)), schedule_path)
        assert main(["evaluate", str(instance_path), str(schedule_path)]) == 2
        assert "exponential survival requires lambda > 0" in capsys.readouterr().err

    def test_csv_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        follower = FollowerProfile(id="émile", sigma=1, rho=0.2, delta=0.5, competitor_load=(1.0, 0.0))
        instance_path, schedule_path = tmp_path / "i.json", tmp_path / "s.json"
        dump_json(instance_to_dict(ProblemInstance(2, 2, (follower,))), instance_path)
        dump_json(schedule_to_dict(Schedule((1, 1))), schedule_path)
        breakdown = tmp_path / "breakdown.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
        }
        proc = subprocess.run(
            [
                sys.executable, "-m", "feedsched.cli", "evaluate",
                str(instance_path), str(schedule_path), "--breakdown", str(breakdown),
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(breakdown.read_bytes().decode("utf-8"))))
        assert {row[0] for row in rows[1:]} == {"émile"}

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_user_ids_on_the_command_line_are_utf8_under_an_ascii_locale(self, tmp_path, command):
        trace, graph = tmp_path / "t.jsonl", tmp_path / "g.csv"
        graph.write_text("follower,followee\na,émile\nb,émile\némile,b\n", encoding="utf-8")
        lines = [
            {"user": "b", "ts": 50, "kind": "post"},
            {"user": "émile", "ts": 100, "kind": "post"},
            {"user": "a", "ts": 200, "kind": "retweet", "target_author": "émile"},
            {"user": "émile", "ts": 300, "kind": "reply", "target_author": "b"},
        ]
        trace.write_text(
            "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in lines), encoding="utf-8"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
        }
        out = str(tmp_path / "out")

        def run(name, as_text=False):
            if command == "estimate":
                args = ["estimate", str(trace), str(graph), name, "--budget", "3", "-o", out]
            else:
                args = ["analyze", str(trace), str(graph), "--user", name, "-o", out]
            args.append("--json")
            argv = [sys.executable, "-m", "feedsched.cli", *args]
            if as_text:
                # `main` called with text, which the ASCII locale cannot encode.
                code = f"from feedsched.cli import main; raise SystemExit(main({ascii(args)}))"
                argv = [sys.executable, "-c", code]
            return subprocess.run(argv, capture_output=True, env=env, timeout=60)

        for proc in (run("émile"), run("émile", as_text=True)):
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            if command == "estimate":
                assert report["followers"] == 2
            else:
                assert report["cluster_stats"] == {"1": 1.0}
        proc = run(b"\xffmile")
        assert proc.returncode == 2
        argument = "producer" if command == "estimate" else "--user"
        assert f"argument {argument}: '\\udcffmile' is not valid UTF-8" in proc.stderr.decode()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_load_json_rejects_non_finite_constants(self, tmp_path, constant):
        path = tmp_path / "x.json"
        path.write_text('{"budget": %s}' % constant)
        with pytest.raises(ValueError, match=f"{path}: non-finite number {constant}"):
            load_json(path)

    def test_heatmap_and_breakdown_emission(self, tmp_path, hand_files, data_dir, monkeypatch):
        # Chunks of two followers, so that every instance below spans several.
        monkeypatch.setattr(cli, "BREAKDOWN_CHUNK", 2)
        instance_path, schedule_path = hand_files
        heat = tmp_path / "heat.csv"
        breakdown = tmp_path / "breakdown.csv"
        rc = main(
            [
                "evaluate",
                str(instance_path),
                str(schedule_path),
                "--heatmap",
                str(heat),
                "--breakdown",
                str(breakdown),
            ]
        )
        assert rc == 0
        rows = read_csv(heat)
        assert rows[0] == ["broadcast_slot", "login_0", "login_1", "login_2"]
        grid = [[float(v) for v in row[1:]] for row in rows[1:]]
        assert grid[2][2] == pytest.approx(0.375)
        assert grid[0][2] == pytest.approx(0.0625)
        bd_rows = read_csv(breakdown)
        assert bd_rows[0][0] == "follower_id"
        assert len(bd_rows) == 4  # header + one row per cluster

        pop = instance_from_dict(load_json(data_dir / "pop_small.instance.json"))
        rng = np.random.default_rng(5)
        family = family_instance(rng, "weibull", "loglogistic", True)
        assert any(c != int(c) for f in family.followers for c in f.competitor_load)
        # Ids that csv.writer quotes, and ones that it writes as they are.
        names = ["a,b", 'say "hi"', "two\nlines", "x\ry", "émile", "a\x00b", "plain"]
        quoted = ProblemInstance(
            slots=3,
            budget=3,
            followers=tuple(
                FollowerProfile(
                    id=name, sigma=j % 3, rho=0.3, delta=0.6, gamma=1.0 + j,
                    competitor_load=(0.5 * j, 1.25, 0.0),
                )
                for j, name in enumerate(names)
            ),
        )
        for instance in (pop, family, quoted):
            schedule = Schedule(tuple(int(v) for v in rng.integers(0, 4, size=instance.slots)))
            dump_json(instance_to_dict(instance), instance_path)
            dump_json(schedule_to_dict(schedule), schedule_path)
            argv = ["evaluate", str(instance_path), str(schedule_path)]
            assert main(argv + ["--breakdown", str(breakdown)]) == 0
            assert breakdown.read_bytes() == oracle_breakdown(instance, schedule)

    def test_mean_centered_heatmap_rows_sum_to_zero(self, tmp_path, hand_files):
        instance_path, schedule_path = hand_files
        heat = tmp_path / "heat.csv"
        rc = main(
            [
                "evaluate",
                str(instance_path),
                str(schedule_path),
                "--heatmap",
                str(heat),
                "--mean-center",
            ]
        )
        assert rc == 0
        for row in read_csv(heat)[1:]:
            assert abs(sum(float(v) for v in row[1:])) < 1e-9

    @pytest.mark.parametrize("extra", [[], ["--breakdown", "b.csv"]], ids=["alone", "breakdown"])
    def test_mean_center_without_heatmap_exits_2(self, tmp_path, extra, capsys):
        """Refused before any file is read: neither input exists."""
        missing = [str(tmp_path / "i.json"), str(tmp_path / "s.json")]
        assert main(["evaluate", *missing, "--mean-center", *extra]) == 2
        assert capsys.readouterr().err == "error: --mean-center needs --heatmap\n"

    def test_json_report(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(["evaluate", str(instance_path), str(schedule_path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == pytest.approx(0.4375)


def _set_follower(**values):
    return lambda obj: obj["followers"][0].update(values)


class TestStrictInstanceAndScheduleFiles:
    """Instance and schedule files are decoded strictly from the dataclass
    fields: a value of the wrong JSON type, an unknown key or a missing
    required key exits with 2, naming the file and the key. `1e400` is a JSON
    number that reads as infinity."""

    @pytest.mark.parametrize(
        "which, edit, location",
        [
            pytest.param("instance", _set_follower(sigma=9.9), "followers[0]: sigma:", id="sigma"),
            pytest.param("instance", lambda o: o.update(budget="6"), "budget:", id="budget"),
            pytest.param(
                "instance",
                lambda o: o.update(cluster_survival_shifted="false"),
                "cluster_survival_shifted:",
                id="shifted",
            ),
            pytest.param(
                "instance",
                lambda o: o.update(follower_survival_famliy="weibull"),
                "unknown key 'follower_survival_famliy'",
                id="misspelled",
            ),
            pytest.param("instance", _set_follower(rho=True), "followers[0]: rho:", id="rho"),
            pytest.param("instance", _set_follower(id=5), "followers[0]: id:", id="id"),
            pytest.param(
                "instance",
                lambda o: o["followers"].__setitem__(0, 5),
                "followers[0]: expected an object",
                id="follower",
            ),
            pytest.param(
                "instance",
                lambda o: o["followers"][0].pop("sigma"),
                "followers[0]: missing key 'sigma'",
                id="missing",
            ),
            pytest.param(
                "schedule", lambda o: o.update(posts=[0.5, 1.2, 1.9]), "posts[0]:", id="posts"
            ),
            pytest.param(
                "schedule", lambda o: o.update(posts=[True, 0, 2]), "posts[0]:", id="bool-posts"
            ),
            pytest.param(
                "schedule", lambda o: o.update(posts=["1e400", 0, 0]), "posts[0]:", id="1e400"
            ),
        ],
    )
    def test_rejected_with_file_and_key(self, tmp_path, hand_files, which, edit, location, capsys):
        paths = dict(zip(("instance", "schedule"), hand_files))
        obj = load_json(paths[which])
        edit(obj)
        bad = tmp_path / f"bad.{which}.json"
        bad.write_text(json.dumps(obj).replace('"1e400"', "1e400"))
        paths[which] = bad
        assert main(["evaluate", str(paths["instance"]), str(paths["schedule"])]) == 2
        assert f"{bad}: {location}" in capsys.readouterr().err

    def test_defaults_fill_missing_optional_keys(self, tmp_path, hand_files, capsys):
        instance_path, schedule_path = hand_files
        obj = load_json(instance_path)
        for key in ("follower_survival_family", "cluster_survival_shifted"):
            del obj[key]
        del obj["followers"][0]["gamma"]
        obj["followers"][0]["competitor_load"] = [0, 1, 0]
        trimmed = tmp_path / "trimmed.json"
        trimmed.write_text(json.dumps(obj))
        assert main(["evaluate", str(trimmed), str(schedule_path)]) == 0
        assert "attention total: 0.437500" in capsys.readouterr().out


class TestOptimizeCommand:
    @pytest.fixture
    def small_files(self, tmp_path):
        follower = FollowerProfile(
            id="a", sigma=0, rho=0.5, delta=1.0, gamma=1.0, competitor_load=(0.0, 1.0)
        )
        instance = ProblemInstance(slots=2, budget=1, followers=(follower,))
        path = tmp_path / "small.json"
        dump_json(instance_to_dict(instance), path)
        return path

    def test_brute_finds_hand_optimum(self, tmp_path, small_files, capsys):
        out = tmp_path / "sched.json"
        rc = main(["optimize", str(small_files), "-o", str(out), "--method", "brute"])
        assert rc == 0
        assert load_json(out)["posts"] == [1, 0]
        assert "terminated by: exhausted" in capsys.readouterr().out

    def test_marginal_deterministic(self, tmp_path, small_files, capsys):
        out = tmp_path / "sched.json"
        outputs = []
        for _ in range(2):
            rc = main(
                ["optimize", str(small_files), "-o", str(out), "--method", "marginal"]
            )
            assert rc == 0
            outputs.append(capsys.readouterr().out + out.read_text())
        assert outputs[0] == outputs[1]

    def test_multistart_seeded(self, tmp_path, small_files):
        out = tmp_path / "sched.json"
        rc = main(
            [
                "optimize",
                str(small_files),
                "-o",
                str(out),
                "--method",
                "multistart",
                "--restarts",
                "3",
                "--seed",
                "11",
            ]
        )
        assert rc == 0
        assert load_json(out)["posts"] == [1, 0]

    def test_uniform_heuristic_one_post_per_slot(self, tmp_path):
        follower = FollowerProfile(
            id="a", sigma=0, rho=0.5, delta=0.5, gamma=1.0, competitor_load=(0.0,) * 24
        )
        instance = ProblemInstance(slots=24, budget=24, followers=(follower,))
        path = tmp_path / "wide.json"
        dump_json(instance_to_dict(instance), path)
        out = tmp_path / "sched.json"
        rc = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--heuristic",
                "uniform",
                "--spend",
                "24",
            ]
        )
        assert rc == 0
        assert load_json(out)["posts"] == [1] * 24

    @pytest.fixture
    def four_slots(self, tmp_path):
        follower = FollowerProfile(
            id="a", sigma=0, rho=0.5, delta=0.5, gamma=1.0, competitor_load=(0.0,) * 4
        )
        path = tmp_path / "four.json"
        dump_json(instance_to_dict(ProblemInstance(slots=4, budget=4, followers=(follower,))), path)
        return path

    def test_peak_heuristic_follows_the_activity_file(self, tmp_path, four_slots):
        activity = tmp_path / "activity.csv"
        activity.write_text("0,3\n1,0\n")
        out = tmp_path / "sched.json"
        argv = ["optimize", str(four_slots), "-o", str(out), "--heuristic", "peak"]
        assert main(argv + ["--activity", str(activity)]) == 0
        assert load_json(out)["posts"] == [0, 3, 1, 0]

    def test_peak_heuristic_with_too_few_weights_exits_2(self, tmp_path, four_slots, capsys):
        activity = tmp_path / "activity.csv"
        activity.write_text("1,2,3\n")
        out = tmp_path / "sched.json"
        argv = ["optimize", str(four_slots), "-o", str(out), "--heuristic", "peak"]
        assert main(argv + ["--activity", str(activity)]) == 2
        assert f"{activity}: expected 4 activity weights, found 3" in capsys.readouterr().err
        assert not out.exists()

    def test_brute_over_cap_exits_4(self, tmp_path, small_files, capsys):
        rc = main(
            [
                "optimize",
                str(small_files),
                "-o",
                str(tmp_path / "s.json"),
                "--method",
                "brute",
                "--cap",
                "2",
            ]
        )
        assert rc == 4
        assert "cap of 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_brute_with_cap_below_one_exits_2(self, tmp_path, small_files, source, cap, capsys):
        out = tmp_path / "s.json"
        argv = ["optimize", str(small_files), "-o", str(out), "--method", "brute"]
        if source == "flag":
            argv += ["--cap", str(cap)]
        else:
            config = tmp_path / "config.json"
            config.write_text(f'{{"enumeration_cap": {cap}}}')
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert f"enumeration_cap (--cap) must be >= 1, got {cap}" in capsys.readouterr().err
        assert not out.exists()

    def test_brute_with_cap_of_one_exits_4(self, tmp_path, small_files, capsys):
        out = tmp_path / "s.json"
        argv = ["optimize", str(small_files), "-o", str(out), "--method", "brute", "--cap", "1"]
        assert main(argv) == 4
        assert "cap of 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_activity_weight_exits_2(self, tmp_path, data_dir, bad, capsys):
        activity = tmp_path / "activity.csv"
        activity.write_text(",".join(["1"] * 23 + [bad]) + "\n")
        argv = [
            "optimize", str(data_dir / "pop_small.instance.json"), "-o", str(tmp_path / "s.json"),
            "--heuristic", "peak", "--activity", str(activity),
        ]
        assert main(argv) == 2
        assert "activity weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights", [["1e308"] * 24, ["1.7e308"] + ["0"] * 23], ids=["sum", "one-weight"]
    )
    def test_overflowing_activity_weights_exit_2(self, tmp_path, data_dir, weights, capsys):
        activity = tmp_path / "activity.csv"
        activity.write_text(",".join(weights) + "\n")
        out = tmp_path / "s.json"
        argv = [
            "optimize", str(data_dir / "pop_small.instance.json"), "-o", str(out),
            "--heuristic", "peak", "--activity", str(activity),
        ]
        assert main(argv) == 2
        assert "activity weights are too large: 6 times their sum overflows" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, line, cell",
        [("1,1,1,1,1,1,1,1\n1,2,abc\n", 2, "'abc'"), ("1\n\n2,-0.5\n", 3, "'-0.5'")],
    )
    def test_bad_activity_cell_names_file_and_line(
        self, tmp_path, data_dir, rows, line, cell, capsys
    ):
        activity = tmp_path / "act.csv"
        activity.write_text(rows)
        out = tmp_path / "s.json"
        argv = [
            "optimize", str(data_dir / "pop_small.instance.json"), "-o", str(out),
            "--heuristic", "peak", "--activity", str(activity),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{activity}:{line}: activity weights must be finite numbers >= 0, got {cell}" in err
        assert not out.exists()

    def test_trajectory_emission(self, tmp_path, small_files):
        out = tmp_path / "sched.json"
        trace = tmp_path / "trajectory.csv"
        rc = main(
            [
                "optimize",
                str(small_files),
                "-o",
                str(out),
                "--method",
                "marginal",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        rows = read_csv(trace)
        assert rows[0] == ["iteration", "slot", "gain"]
        assert rows[1][1] == "0"
        assert float(rows[1][2]) == pytest.approx(0.5)

    def test_method_and_heuristic_are_exclusive(self, tmp_path, small_files):
        rc = main(
            [
                "optimize",
                str(small_files),
                "-o",
                str(tmp_path / "s.json"),
                "--method",
                "brute",
                "--heuristic",
                "uniform",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "mode, extra, message",
        [
            (["--method", "marginal"], ["--spend", "3"], "--spend needs --heuristic"),
            (["--heuristic", "smart"], ["--activity", "w"], "--activity needs --heuristic peak"),
            (["--heuristic", "peak"], ["--initial", "x.json"], "--initial needs --method marginal"),
            (["--method", "brute"], ["--restarts", "2"], "--restarts needs --method multistart"),
            (["--heuristic", "smart"], ["--trace", "t.csv"], "--trace needs --method"),
            (
                ["--method", "marginal"],
                ["--spend", "3", "--activity", "a.csv", "--restarts", "0"],
                "--spend needs --heuristic; --activity needs --heuristic peak; "
                "--restarts needs --method multistart",
            ),
        ],
        ids=["spend", "activity", "initial", "restarts", "trace", "all-named"],
    )
    def test_flag_the_mode_never_reads_exits_2(self, tmp_path, mode, extra, message, capsys):
        """Refused before any file is read: the instance does not exist."""
        out = tmp_path / "s.json"
        argv = ["optimize", str(tmp_path / "missing.json"), "-o", str(out), *mode, *extra]
        assert main(argv) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_multistart_without_restarts_runs_four(self, tmp_path, data_dir, capsys):
        path = data_dir / "pop_small.instance.json"
        argv = ["optimize", str(path), "-o", str(tmp_path / "s.json"), "--method", "multistart"]
        assert main(argv + ["--json"]) == 0
        # Each restart count gives this instance its own evaluation count.
        expected = multistart(instance_from_dict(load_json(path)), 4, 0).evaluations
        assert json.loads(capsys.readouterr().out)["evaluations"] == expected


class TestSimulateCommand:
    def test_zero_days_exits_2(self, hand_files):
        instance_path, schedule_path = hand_files
        rc = main(["simulate", str(instance_path), str(schedule_path), "--days", "0"])
        assert rc == 2

    def test_a_z_score_without_spread_is_null(self, hand_files, capsys):
        # One day has no standard error; its total differs from the analytic one.
        argv = ["simulate", *map(str, hand_files), "--days", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("z-score: n/a\n")
        assert main(argv + ["--json"]) == 0

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["standard_error"] == 0.0 and report["z_score"] is None
        assert report["empirical_total"] != report["analytic_total_rounded"]

    def test_negative_seed_exits_2(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(["simulate", str(instance_path), str(schedule_path), "--seed", "-1"])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_agreement_with_analytic_total(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(
            [
                "simulate",
                str(instance_path),
                str(schedule_path),
                "--days",
                "100000",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic total (rounded loads): 0.437500" in out
        z = float(out.split("z-score:")[1].strip())
        assert abs(z) <= 4

    def test_report_is_seed_stable(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        outputs = []
        for _ in range(2):
            rc = main(
                [
                    "simulate",
                    str(instance_path),
                    str(schedule_path),
                    "--days",
                    "2000",
                    "--seed",
                    "9",
                ]
            )
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_instance_is_rounded_once(self, hand_files, monkeypatch):
        from feedsched import cli

        rounded, read = [], []
        round_, replay, analytic = cli.rounded_instance, cli.simulate, cli.attention_potential

        def rounding(instance):
            rounded.append(round_(instance))
            return rounded[-1]

        def replaying(schedule, instance, *args, **kwargs):
            read.append(instance)
            return replay(schedule, instance, *args, **kwargs)

        def evaluating(schedule, instance):
            read.append(instance)
            return analytic(schedule, instance)

        monkeypatch.setattr(cli, "rounded_instance", rounding)
        monkeypatch.setattr(cli, "simulate", replaying)
        monkeypatch.setattr(cli, "attention_potential", evaluating)
        instance_path, schedule_path = hand_files
        assert main(["simulate", str(instance_path), str(schedule_path), "--days", "10"]) == 0
        assert len(rounded) == 1 and len(read) == 2
        assert all(instance is rounded[0] for instance in read)

    def test_merged_mode_flag(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(
            [
                "simulate",
                str(instance_path),
                str(schedule_path),
                "--days",
                "100",
                "--merged",
            ]
        )
        assert rc == 0
        assert "mode: merged-clusters" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_counts_mode_reproduces_difference_matrix(self, tmp_path, data_dir):
        out_dir = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--counts",
                str(data_dir / "cluster_reaction_counts.csv"),
                "-o",
                str(out_dir),
                "--permutations",
                "1000",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        rows = read_csv(out_dir / "t_obs.csv")
        header, first = rows[0], rows[1]
        assert header == ["i\\j", "2", "3", "4", "5"]
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.0004, abs=5e-5)
        p_rows = read_csv(out_dir / "p_values.csv")
        p34 = float(p_rows[3][3])  # row i=3, column j=4
        assert p34 > 0.05
        p12 = float(p_rows[1][1])
        assert p12 < 0.05

    def test_counts_mode_writes_cluster_stats(self, tmp_path, data_dir):
        out_dir = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--counts",
                str(data_dir / "cluster_reaction_counts.csv"),
                "-o",
                str(out_dir),
            ]
        )
        assert rc == 0
        rows = read_csv(out_dir / "cluster_stats.csv")
        assert rows[0] == ["size", "reactions", "total", "probability"]
        assert rows[1][:3] == ["1", "15897", "8435832"]
        assert rows[-1][0] == ">10"

    def test_trace_mode_emits_position_table_and_alpha(self, tmp_path, data_dir, capsys):
        out_dir = tmp_path / "out"
        rc = main(
            [
                "analyze",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "--all",
                "-o",
                str(out_dir),
                "--max-size",
                "3",
            ]
        )
        assert rc == 0
        assert (out_dir / "reaction_by_size_position.csv").exists()
        assert (out_dir / "cluster_stats.csv").exists()
        assert (out_dir / "interevent_histogram.csv").exists()

    def test_unknown_user_exits_2(self, tmp_path, data_dir):
        rc = main(
            [
                "analyze",
                str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"),
                "--user",
                "ghost",
                "-o",
                str(tmp_path),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("1,5,3", 2, "reactions <= total"),
            ("1,-1,3", 2, "0 <= reactions"),
            ("1,0,0", 2, "total >= 1"),
            ("1,1,3\n1,1,4", 3, "a second row for size 1"),
            (">5,0,3", 2, "size must be one of"),
            ("0,0,3", 2, "size must be one of"),
            ("11,0,3", 2, "size must be one of"),
            ("1,2,7,9", 2, "expected three columns"),
            ("1,2", 2, "expected three columns"),
        ],
    )
    def test_impossible_counts_rows_exit_2(self, tmp_path, rows, line, message, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("size,reactions,total\n" + rows + "\n")
        rc = main(["analyze", "--counts", str(path), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and f"{path}:{line}:" in err and message in err

    def test_requires_counts_or_trace(self, tmp_path):
        assert main(["analyze", "-o", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "extra, given",
        [
            (["{trace}"], "a trace"),
            (["{trace}", "{graph}"], "a trace, a graph"),
            (["--user", "nobody"], "--user"),
            (["--all"], "--all"),
            (["--user", "nobody", "--all"], "--user, --all"),
        ],
        ids=["trace", "trace-graph", "user", "all", "user-all"],
    )
    def test_counts_with_trace_inputs_exits_2(self, tmp_path, data_dir, extra, given, capsys):
        trace, graph = data_dir / "pop_small.trace.jsonl", data_dir / "pop_small.graph.csv"
        inputs = [a.format(trace=trace, graph=graph) for a in extra]
        counts = str(data_dir / "cluster_reaction_counts.csv")
        out = tmp_path / "out"
        argv = ["analyze", *inputs, "--counts", counts, "-o", str(out)]
        assert main(argv) == 2
        assert f"--counts cannot be given with {given}" in capsys.readouterr().err
        assert not (out / "cluster_stats.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["{trace}", "{graph}", "--all", "--counts", "{counts}"],
            ["--all", "--counts", "{counts}"],
            ["{trace}", "{graph}"],
            ["{trace}", "{graph}", "--user", "prod", "--all"],
            ["{tmp}/missing.jsonl", "{graph}", "--all"],
            ["{trace}", "{graph}", "--user", "nobody"],
            ["--counts", "{tmp}/missing.csv"],
        ],
        ids=["counts-trace", "counts-all", "neither", "both", "no-trace", "no-user", "no-counts"],
    )
    def test_refusal_leaves_no_output_directory(self, tmp_path, data_dir, extra, capsys):
        paths = {
            "trace": data_dir / "pop_small.trace.jsonl",
            "graph": data_dir / "pop_small.graph.csv",
            "counts": data_dir / "cluster_reaction_counts.csv",
            "tmp": tmp_path,
        }
        out = tmp_path / "newdir"
        argv = ["analyze", *(a.format(**paths) for a in extra), "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_permutations_below_one_exit_2(self, tmp_path, source, value, capsys):
        """Refused before any file is read, even for a one-bucket table,
        which runs no test."""
        counts = tmp_path / "counts.csv"
        counts.write_text("size,reactions,total\n1,3,10\n")
        out = tmp_path / "out"
        argv = ["analyze", "--counts", str(counts), "-o", str(out)]
        if source == "flag":
            argv += ["--permutations", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(f'{{"permutations": {value}}}')
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert f"permutations (--permutations) must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_user_and_all_together_exit_2(self, tmp_path, data_dir, capsys):
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        argv = ["analyze", *inputs, "--user", "prod", "--all", "-o", str(tmp_path)]
        assert main(argv) == 2
        assert "exactly one of --user or --all is required" in capsys.readouterr().err

    def test_empty_user_with_all_exits_2(self, tmp_path, data_dir, capsys):
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        argv = ["analyze", *inputs, "--user", "", "--all", "-o", str(tmp_path)]
        assert main(argv) == 2
        assert "exactly one of --user or --all is required" in capsys.readouterr().err

    def test_empty_user_is_an_unknown_user(self, tmp_path, data_dir, capsys):
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        assert main(["analyze", *inputs, "--user", "", "-o", str(tmp_path)]) == 2
        assert "unknown user ''" in capsys.readouterr().err

    def test_json_report(self, tmp_path, data_dir, capsys):
        rc = main(
            [
                "analyze",
                "--counts",
                str(data_dir / "cluster_reaction_counts.csv"),
                "-o",
                str(tmp_path),
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["t_obs"]["1,2"] == pytest.approx(0.0004, abs=5e-5)

    def test_peak_memory_does_not_grow_with_the_users(self, tmp_path, monkeypatch):
        """`--all` keeps one integer tally, not every user's clusters: with the
        trace and graph already loaded, 111 users instead of 31 (with as many
        timeline posts each) leave the traced peak within 0.25 MB."""
        peaks = []
        # The first run makes every lazy import and cache the others reuse.
        for followers in (90, 10, 90):
            events, edges = generators.trace_and_graph(
                0, followers=followers, competitors=20, days=5
            )
            trace = ActivityTrace([Event(**e) for e in events])
            graph = FollowGraph(edges)
            monkeypatch.setattr(cli, "load_trace", lambda *args, **kwargs: trace)
            monkeypatch.setattr(cli, "load_graph", lambda *args, **kwargs: graph)
            tracemalloc.start()
            try:
                assert main(["analyze", "t", "g", "--all", "-o", str(tmp_path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 2**18


class TestRoundTripAndMisc:
    def test_instance_round_trip_is_identity(self, data_dir):
        obj = load_json(data_dir / "pop_small.instance.json")
        assert instance_to_dict(instance_from_dict(obj)) == obj

    def test_generated_instance_round_trip_is_identity(self):
        obj = json.loads(json.dumps(generators.instance_dict(5, followers=20)))
        assert instance_to_dict(instance_from_dict(obj)) == obj

    def test_module_run_exits_2_on_a_missing_file(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        missing = str(tmp_path / "nonexistent.json")
        proc = subprocess.run(
            [sys.executable, "-m", "feedsched.cli", "evaluate", missing, missing],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and "nonexistent.json" in proc.stderr

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_estimate_output_feeds_optimize(self, tmp_path, data_dir):
        sched = tmp_path / "sched.json"
        rc = main(
            [
                "optimize",
                str(data_dir / "pop_small.instance.json"),
                "-o",
                str(sched),
                "--method",
                "marginal",
            ]
        )
        assert rc == 0
        posts = load_json(sched)["posts"]
        assert len(posts) == 24
        assert sum(posts) <= 6


# Every command's text output and its --json object (without `timings_s`, whose
# values are wall times), pinned byte for byte in tests/data/cli_golden.json.
# `{data}` is the fixture directory and `{tmp}` the test's scratch directory;
# output paths are compared with the scratch directory written as `<tmp>`.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
GOLDEN_POSTS = [0] * 8 + [1, 1, 0, 0, 2] + [0] * 7 + [1, 1, 0, 0]
POP = "{data}/pop_small.instance.json"
GOLDEN_RUNS = {
    "estimate": [
        "estimate", "{data}/pop_small.trace.jsonl", "{data}/pop_small.graph.csv", "prod",
        "-o", "{tmp}/instance.json", "--budget", "6",
    ],
    "evaluate": [
        "evaluate", POP, "{tmp}/schedule.json",
        "--heatmap", "{tmp}/heat.csv", "--breakdown", "{tmp}/breakdown.csv",
    ],
    "optimize-marginal": [
        "optimize", POP, "-o", "{tmp}/out.json",
        "--method", "marginal", "--trace", "{tmp}/trajectory.csv",
    ],
    "optimize-brute": ["optimize", "{tmp}/hand.json", "-o", "{tmp}/out.json", "--method", "brute"],
    "optimize-multistart": [
        "optimize", POP, "-o", "{tmp}/out.json",
        "--method", "multistart", "--restarts", "3", "--seed", "11",
    ],
    "optimize-smart": ["optimize", POP, "-o", "{tmp}/out.json", "--heuristic", "smart"],
    "simulate": ["simulate", POP, "{tmp}/schedule.json", "--days", "500", "--seed", "3"],
    "simulate-merged": [
        "simulate", POP, "{tmp}/schedule.json", "--days", "500", "--seed", "3", "--merged",
    ],
    "analyze-counts": [
        "analyze", "--counts", "{data}/cluster_reaction_counts.csv",
        "-o", "{tmp}/out", "--permutations", "200",
    ],
    "analyze-trace": [
        "analyze", "{data}/pop_small.trace.jsonl", "{data}/pop_small.graph.csv", "--all",
        "-o", "{tmp}/out", "--permutations", "200",
    ],
}


def _trajectory_line_last(lines):
    """Earlier versions printed `wrote trajectory …` between `attention total:`
    and `evaluations:`; it now follows `terminated by:`. That move is the one
    allowed difference from the output those versions gave."""
    moved = [line for line in lines if line.startswith("wrote trajectory ")]
    rest = [line for line in lines if not line.startswith("wrote trajectory ")]
    at = next((k + 1 for k, line in enumerate(rest) if line.startswith("terminated by:")), 0)
    return rest[:at] + moved + rest[at:]


def _untemp(value, tmp):
    if isinstance(value, str):
        return value.replace(str(tmp), "<tmp>")
    if isinstance(value, dict):
        return {k: _untemp(v, tmp) for k, v in value.items()}
    return value


class TestGoldenOutput:
    @pytest.fixture
    def golden_argv(self, tmp_path, data_dir, hand_instance):
        dump_json(instance_to_dict(hand_instance), tmp_path / "hand.json")
        dump_json({"posts": GOLDEN_POSTS}, tmp_path / "schedule.json")
        return lambda name: [arg.format(data=data_dir, tmp=tmp_path) for arg in GOLDEN_RUNS[name]]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_text_and_json_match_golden(self, name, golden_argv, tmp_path, capsys):
        argv = golden_argv(name)
        assert main(argv) == 0
        lines = capsys.readouterr().out.replace(str(tmp_path), "<tmp>").splitlines()
        assert _trajectory_line_last(lines) == GOLDEN[name]["text"]
        assert main(argv + ["--json"]) == 0
        report = _untemp(json.loads(capsys.readouterr().out), tmp_path)
        report.pop("timings_s", None)
        assert report == GOLDEN[name]["json"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_json_reports_stage_timings(self, name, golden_argv, capsys):
        assert main(golden_argv(name) + ["--json"]) == 0
        timings = json.loads(capsys.readouterr().out)["timings_s"]
        assert timings and all(math.isfinite(t) and t >= 0 for t in timings.values())


class TestSessionGapAndTailCutoff:
    """`gap_hours` and `tau_min_hours` must be finite and positive, whether
    they come from a flag or from the config file."""

    def argv(self, data_dir, tmp_path, key):
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        out = ["-o", str(tmp_path / "x.json")]
        if key == "gap_hours":
            return ["estimate", *inputs, "prod", "--budget", "6", *out]
        return ["analyze", *inputs, "--all", *out]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "key, flag", [("gap_hours", "--gap-hours"), ("tau_min_hours", "--tau-min")]
    )
    def test_flag(self, tmp_path, data_dir, key, flag, value, capsys):
        rc = main(self.argv(data_dir, tmp_path, key) + [flag, value])
        assert rc == 2 and key in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "1e400"])
    @pytest.mark.parametrize("key", ["gap_hours", "tau_min_hours"])
    def test_config_file(self, tmp_path, data_dir, key, value, capsys):
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": {value}}}')
        rc = main(self.argv(data_dir, tmp_path, key) + ["--config", str(config)])
        assert rc == 2 and key in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestSeedAndDefaultChecks:
    """A negative seed is rejected by name before any work, from a flag or the
    config file, and so are `rho_default`/`delta_default` outside [0, 1]."""

    def argv(self, data_dir, tmp_path, command):
        out = tmp_path / "out"
        if command == "multistart":
            instance = str(data_dir / "pop_small.instance.json")
            return ["optimize", instance, "-o", str(out), "--method", "multistart"]
        if command == "analyze-counts":
            counts = str(data_dir / "cluster_reaction_counts.csv")
            return ["analyze", "--counts", counts, "-o", str(out)]
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        if command == "analyze-trace":
            return ["analyze", *inputs, "--all", "-o", str(out)]
        return ["estimate", *inputs, "prod", "--budget", "6", "-o", str(out)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["multistart", "analyze-counts", "analyze-trace"])
    def test_negative_seed_exits_2(self, tmp_path, data_dir, command, source, capsys):
        argv = self.argv(data_dir, tmp_path, command)
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text('{"seed": -1}')
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert "seed (--seed) must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["7.5", "-3", "1.0000001", "-0.0001", "1e400"])
    @pytest.mark.parametrize("key", ["rho_default", "delta_default"])
    def test_default_out_of_range_exits_2(self, tmp_path, data_dir, key, value, capsys):
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": {value}}}')
        assert main(self.argv(data_dir, tmp_path, "estimate") + ["--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_both_defaults_out_of_range_name_the_first(self, tmp_path, data_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"rho_default": 7.5, "delta_default": -3}')
        assert main(self.argv(data_dir, tmp_path, "estimate") + ["--config", str(config)]) == 2
        assert "rho_default must be finite and in [0, 1], got 7.5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, 1])
    def test_default_bounds_are_accepted(self, tmp_path, data_dir, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho_default": value, "delta_default": value}))
        assert main(self.argv(data_dir, tmp_path, "estimate") + ["--config", str(config)]) == 0
        assert (tmp_path / "out").exists()


class TestConfigFile:
    """A config-file value must have its field's type; a float field takes an
    integer and a pair of hours a two-element list of hours in 0..23."""

    @pytest.mark.parametrize(
        "config, command, key",
        [
            ({"slots": "24"}, "estimate", "slots"),
            ({"seed": 1.5}, "multistart", "seed"),
            ({"night_hours": 5}, "smart", "night_hours"),
            ({"cluster_survival_shifted": "no"}, "estimate", "cluster_survival_shifted"),
            ({"slot": 24}, "estimate", "slot"),
            ({"gap_hours": True}, "estimate", "gap_hours"),
            ({"lunch_hours": [12, 13.5]}, "smart", "lunch_hours[1]"),
            ({"slots": 0}, "estimate", "slots"),
            ({"gap_hours": 8, "cluster_survival_shifted": False}, "estimate", None),
            ({"night_hours": [22, 5], "seed": 3, "enumeration_cap": 10}, "smart", None),
            ({"lunch_hours": [12, 99]}, "smart", "lunch_hours"),
            ({"gamma_mode": "median"}, "estimate", "unknown gamma_mode 'median'"),
            ({"night_hours": [-1, 6]}, "smart", "night_hours"),
            ({"night_hours": [23, 24]}, "smart", "night_hours"),
            ({"lunch_hours": [0, 23], "night_hours": [23, 0]}, "smart", None),
        ],
    )
    def test_value_types(self, tmp_path, data_dir, config, command, key, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        if command == "estimate":
            argv = [
                "estimate", str(data_dir / "pop_small.trace.jsonl"),
                str(data_dir / "pop_small.graph.csv"), "prod", "--budget", "6",
            ]
        else:
            argv = ["optimize", str(data_dir / "pop_small.instance.json")]
            argv += ["--heuristic", "smart"] if command == "smart" else ["--method", command]
        rc = main(argv + ["-o", str(out), "--config", str(path)])
        if key is None:
            assert rc == 0 and out.exists()
        else:
            assert rc == 2 and not out.exists()
            assert key in capsys.readouterr().err


class TestMatrixSizeAndTimezone:
    """`matrix_max_size` spans the size buckets 2..11, where 11 is `>10`, and
    `tz_offset_minutes` the offsets UTC-12 to UTC+14, whether they come from a
    flag or from the config file."""

    def analyze(self, data_dir, out, *extra):
        counts = str(data_dir / "cluster_reaction_counts.csv")
        return main(["analyze", "--counts", counts, "-o", str(out), "--permutations", "50", *extra])

    @pytest.mark.parametrize("value", [0, 1, 12, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_max_size_out_of_range_exits_2(self, tmp_path, data_dir, source, value, capsys):
        out = tmp_path / "out"
        if source == "flag":
            rc = self.analyze(data_dir, out, "--max-size", str(value))
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"matrix_max_size": value}))
            rc = self.analyze(data_dir, out, "--config", str(config))
        assert rc == 2 and "matrix_max_size" in capsys.readouterr().err
        assert not out.exists()

    def test_max_size_11_labels_the_overflow_bucket(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert self.analyze(data_dir, out, "--max-size", "11", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        for name in ("t_obs", "p_values"):
            header, *rows = read_csv(out / f"{name}.csv")
            assert header == ["i\\j", *map(str, range(2, 11)), ">10"]
            assert [row[0] for row in rows] == [str(i) for i in range(1, 11)]
            assert all(len(row) == 11 and row[-1] for row in rows)
            assert "1,>10" in report[name] and "1,11" not in report[name]
            assert len(report[name]) == 55

    def estimate(self, data_dir, out, *extra):
        inputs = [str(data_dir / "pop_small.trace.jsonl"), str(data_dir / "pop_small.graph.csv")]
        return main(["estimate", *inputs, "prod", "--budget", "6", "-o", str(out), *extra])

    @pytest.mark.parametrize("value", [-721, 841, 10**23])
    def test_tz_offset_flag_out_of_range_exits_2(self, tmp_path, data_dir, value, capsys):
        out = tmp_path / "x.json"
        rc = self.estimate(data_dir, out, "--tz-offset-minutes", str(value))
        assert rc == 2 and "tz_offset_minutes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [-721, 841, 10**23])
    def test_tz_offset_config_out_of_range_exits_2(self, tmp_path, data_dir, value, capsys):
        out = tmp_path / "x.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tz_offset_minutes": value}))
        rc = self.estimate(data_dir, out, "--config", str(config))
        assert rc == 2 and "tz_offset_minutes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [-720, 840])
    def test_tz_offset_bounds_are_accepted(self, tmp_path, data_dir, value):
        out = tmp_path / "x.json"
        assert self.estimate(data_dir, out, "--tz-offset-minutes", str(value)) == 0
        assert out.exists()


def _four_followers() -> dict:
    return {
        "slots": 2,
        "budget": 2,
        "followers": [
            {"id": f"u{j}", "sigma": j % 2, "rho": 0.25, "delta": 0.5, "gamma": 1.0,
             "competitor_load": [0.5, 1.0]}
            for j in range(4)
        ],
    }


class TestColumnarInstanceDecode:
    """`instance_from_dict` reads the followers straight into columns. Any bad
    value sends it back to the per-follower decode, which names the first bad
    follower with its own message."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda f: f["competitor_load"].__setitem__(1, "1.5"),
                "inst.json: followers[3]: competitor_load[1]: expected a number, got '1.5'",
                id="string-load",
            ),
            pytest.param(
                lambda f: f["competitor_load"].__setitem__(1, True),
                "inst.json: followers[3]: competitor_load[1]: expected a number, got True",
                id="bool-load",
            ),
            pytest.param(
                lambda f: f.update(rho=1.5),
                "inst.json: followers[3]: rho must lie in [0, 1], got 1.5",
                id="rho",
            ),
            pytest.param(
                lambda f: f.update(sigma=2),
                "inst.json: follower 'u3' has sigma=2 outside the 2 slots",
                id="sigma",
            ),
            pytest.param(
                lambda f: f.update(competitor_load=[0.5]),
                "inst.json: follower 'u3' has a competitor load of length 1, expected 2",
                id="load-length",
            ),
            pytest.param(
                lambda f: f.update(gamma=-1),
                "inst.json: followers[3]: gamma must be finite and >= 0, got -1.0",
                id="gamma",
            ),
            pytest.param(
                lambda f: f.update(rho=10**400),
                "inst.json: followers[3]: rho: expected a number in the float range, "
                "got 100000000000000000...0000000000000000000",
                id="rho-past-float",
            ),
            pytest.param(
                lambda f: f.update(sigma=2**70),
                "inst.json: follower 'u3' has sigma=1180591620717411303424 outside the 2 slots",
                id="sigma-past-intp",
            ),
        ],
    )
    def test_a_bad_fourth_follower_is_named_as_before(self, edit, message):
        obj = _four_followers()
        edit(obj["followers"][3])
        with pytest.raises(ValueError) as info:
            instance_from_dict(obj, "inst.json")
        assert str(info.value) == message

    def test_integer_loads_are_read_as_floats(self):
        obj = _four_followers()
        for follower in obj["followers"]:
            follower["competitor_load"] = [1, 2]
        instance = instance_from_dict(obj, "inst.json")
        assert instance == from_json(ProblemInstance, obj, "inst.json")
        assert instance.followers.competitor_load.tolist() == [[1.0, 2.0]] * 4
        assert "1.0" in json.dumps(instance_to_dict(instance)["followers"][0]["competitor_load"])

    def test_zero_followers(self):
        instance = instance_from_dict({"slots": 3, "budget": 2, "followers": []})
        assert len(instance.followers) == 0 and instance.followers == ()
        assert instance.followers.competitor_load.shape == (0, 3)

    def test_a_missing_gamma_takes_the_column_path_as_one(self, monkeypatch):
        with_gamma = _four_followers()
        with_gamma["followers"][2]["gamma"] = 1.0
        without = _four_followers()
        for j in (0, 2, 3):
            del without["followers"][j]["gamma"]
        built = []
        post_init = FollowerProfile.__post_init__

        def counting(profile):
            built.append(profile.id)
            post_init(profile)

        monkeypatch.setattr(FollowerProfile, "__post_init__", counting)
        instance = instance_from_dict(without, "inst.json")
        assert built == []
        assert instance == instance_from_dict(with_gamma, "inst.json")
        assert instance.followers.gamma.tolist() == [1.0, 1.0, 1.0, 1.0]
        monkeypatch.undo()
        assert instance == from_json(ProblemInstance, without, "inst.json")

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda f: f.update(rho=1.5),
                "inst.json: followers[3]: rho must lie in [0, 1], got 1.5",
                id="rho",
            ),
            pytest.param(
                lambda f: f.update(weight=1.0),
                "inst.json: followers[3]: unknown key 'weight'; expected one of "
                "['competitor_load', 'delta', 'gamma', 'id', 'rho', 'sigma']",
                id="unknown-key",
            ),
            pytest.param(
                lambda f: f.pop("delta"),
                "inst.json: followers[3]: missing key 'delta'",
                id="missing-delta",
            ),
            pytest.param(
                lambda f: f.update(gamma="1"),
                "inst.json: followers[3]: gamma: expected a number, got '1'",
                id="string-gamma",
            ),
        ],
    )
    def test_a_bad_follower_without_gamma_is_named_as_before(self, edit, message):
        obj = _four_followers()
        for follower in obj["followers"]:
            del follower["gamma"]
        edit(obj["followers"][3])
        with pytest.raises(ValueError) as info:
            instance_from_dict(obj, "inst.json")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "first, message",
        [
            ("followers", "inst.json: followers[3]: rho must lie in [0, 1], got 1.5"),
            ("budget", "inst.json: budget: expected an integer, got 'x'"),
        ],
    )
    def test_the_first_bad_key_in_object_order_is_named(self, first, message):
        """Why the per-follower decode stays: the first bad key in the
        object's order is named, so a decoder that checked the other fields
        before the follower columns would name `budget` both times."""
        obj = _four_followers()
        obj["followers"][3]["rho"] = 1.5
        obj["budget"] = "x"
        obj = {first: obj.pop(first), **obj}
        with pytest.raises(ValueError) as info:
            instance_from_dict(obj, "inst.json")
        assert str(info.value) == message

    def test_a_generated_instance_round_trips_byte_for_byte(self, tmp_path):
        obj = json.loads(json.dumps(generators.instance_dict(2, followers=30)))
        instance = instance_from_dict(obj, "inst.json")
        assert instance == from_json(ProblemInstance, obj, "inst.json")
        dump_json(obj, tmp_path / "a.json")
        dump_json(instance_to_dict(instance), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestZeroFollowers:
    def test_heatmap_and_breakdown_write_floats(self, tmp_path):
        instance_path, schedule_path = tmp_path / "empty.json", tmp_path / "s.json"
        dump_json({"slots": 3, "budget": 2, "followers": []}, instance_path)
        dump_json({"posts": [1, 0, 1]}, schedule_path)
        heat, breakdown = tmp_path / "heat.csv", tmp_path / "breakdown.csv"
        argv = ["evaluate", str(instance_path), str(schedule_path)]
        assert main(argv + ["--heatmap", str(heat), "--breakdown", str(breakdown)]) == 0
        assert heat.read_bytes() == (
            b"broadcast_slot,login_0,login_1,login_2\r\n"
            b"0,0.0,0.0,0.0\r\n1,0.0,0.0,0.0\r\n2,0.0,0.0,0.0\r\n"
        )
        assert breakdown.read_bytes() == oracle_breakdown(
            instance_from_dict(load_json(instance_path)), Schedule((1, 0, 1))
        )


class TestPlanCommandsBuildNoProfiles:
    def test_optimize_evaluate_and_simulate_build_no_follower_profile(
        self, tmp_path, monkeypatch
    ):
        """The three `plan` commands read the population as columns only, also
        where the benchmark's tracer reads `len(instance.followers)`, and each
        builds one timeline layout."""
        from perfbench.tracing import Tracer

        paths = {name: str(tmp_path / name) for name in (
            "instance.json", "schedule.json", "heat.csv", "breakdown.csv")}
        generators.write_json(paths["instance.json"], generators.instance_dict(3, followers=40))
        built = []
        post_init = FollowerProfile.__post_init__

        def counting(profile):
            built.append(profile.id)
            post_init(profile)

        monkeypatch.setattr(FollowerProfile, "__post_init__", counting)
        layouts = []
        layout_init = TimelineLayout.__init__

        def counting_layouts(layout, instance):
            layouts.append(len(instance.followers))
            layout_init(layout, instance)

        monkeypatch.setattr(TimelineLayout, "__init__", counting_layouts)
        tracer = Tracer()
        tracer.install()
        per_command = []
        try:
            for argv in (
                ["optimize", paths["instance.json"], "-o", paths["schedule.json"],
                 "--method", "marginal"],
                ["evaluate", paths["instance.json"], paths["schedule.json"],
                 "--heatmap", paths["heat.csv"], "--breakdown", paths["breakdown.csv"]],
                ["simulate", paths["instance.json"], paths["schedule.json"], "--days", "50"],
            ):
                assert main(argv + ["--json"]) == 0
                per_command.append(len(layouts))
                layouts.clear()
        finally:
            tracer.uninstall()
        assert per_command == [1, 1, 1]
        assert tracer.counts["simulate.follower_days"] == 40 * 50
        assert tracer.counts["objective.attention_total_follower_evals"] == 40
        assert built == []
