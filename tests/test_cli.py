"""End-to-end command-line behaviour: formats, exit codes, determinism."""

import csv
import json
from pathlib import Path

import pytest

from feedsched import FollowerProfile, ProblemInstance, Schedule
from feedsched.cli import main
from feedsched.formats import (
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_json,
    schedule_to_dict,
)


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

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_load_json_rejects_non_finite_constants(self, tmp_path, constant):
        path = tmp_path / "x.json"
        path.write_text('{"budget": %s}' % constant)
        with pytest.raises(ValueError, match=f"{path}: non-finite number {constant}"):
            load_json(path)

    def test_heatmap_and_breakdown_emission(self, tmp_path, hand_files):
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

    def test_json_report(self, hand_files, capsys):
        instance_path, schedule_path = hand_files
        rc = main(["evaluate", str(instance_path), str(schedule_path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == pytest.approx(0.4375)


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


class TestSimulateCommand:
    def test_zero_days_exits_2(self, hand_files):
        instance_path, schedule_path = hand_files
        rc = main(["simulate", str(instance_path), str(schedule_path), "--days", "0"])
        assert rc == 2

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

    def test_requires_counts_or_trace(self, tmp_path):
        assert main(["analyze", "-o", str(tmp_path)]) == 2

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


class TestRoundTripAndMisc:
    def test_instance_round_trip_is_identity(self, data_dir):
        obj = load_json(data_dir / "pop_small.instance.json")
        assert instance_to_dict(instance_from_dict(obj)) == obj

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
