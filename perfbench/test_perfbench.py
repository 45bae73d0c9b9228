"""The benchmark's own test: each workload at a tiny size reports every metric
named in BENCHMARK.json, a corrupted fingerprint counts as a failed
operation, the generators are deterministic, and the harness refuses to run
without the program next to it."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import generators

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(*args):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_report_names_every_metric_with_its_unit_per_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--report", "--scale", "tiny", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
    assert sorted(rows) == sorted(w["name"] for w in spec["workloads"])
    for workload, row in rows.items():
        assert "correct=True" in row and "failed=0" in row, (workload, row)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            pattern = rf"(^|, ){re.escape(metric['name'])}=\S+ {re.escape(metric['unit'])}(,|$)"
            assert re.search(pattern, row), (workload, metric["name"])


def test_corrupted_fingerprint_is_a_failed_operation(tmp_path):
    book = json.loads((HERE / "fingerprints.json").read_text())
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(book))
    assert last_json(bench("--workload", "plan", "--scale", "tiny", "--seconds", "0",
                           "--fingerprints", str(clean)))["failed"] == 0

    book["tiny/plan/0"]["optimize"]["total"] *= 1.0 + 1e-6
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(book))
    result = last_json(bench("--workload", "plan", "--scale", "tiny", "--seconds", "0",
                             "--fingerprints", str(corrupted)))
    assert result["correct"] is False
    assert result["failed"] == 1


def test_record_replaces_a_stale_fingerprint(tmp_path):
    book = json.loads((HERE / "fingerprints.json").read_text())
    fresh = book["tiny/plan/0"]
    book["tiny/plan/0"] = json.loads(json.dumps(fresh))
    book["tiny/plan/0"]["optimize"]["total"] *= 1.0 + 1e-6
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(book))
    assert last_json(bench("--workload", "plan", "--scale", "tiny", "--seconds", "0",
                           "--fingerprints", str(stale), "--record"))["failed"] == 0
    assert json.loads(stale.read_text())["tiny/plan/0"] == fresh


def test_generators_write_identical_bytes_for_one_seed(tmp_path):
    for name in ("a", "b"):
        events, edges = generators.trace_and_graph(3, followers=8, competitors=5,
                                                   followees=3, days=3)
        generators.write_trace(tmp_path / f"{name}.jsonl", events)
        generators.write_graph(tmp_path / f"{name}.csv", edges)
        generators.write_json(tmp_path / f"{name}.json",
                              generators.instance_dict(3, followers=5, slots=6))
    for ext in ("jsonl", "csv", "json"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
