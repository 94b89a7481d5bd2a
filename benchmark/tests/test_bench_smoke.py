"""A tiny corpus of every workload runs end to end in a few seconds.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("hodge-ci", "hilbert-polygon", "euler-ci")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # the layers' self times account for the traced wall time
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items()
                     if k.endswith(".self_s") and not k.startswith("trace."))
        assert abs(values["trace.wall_s"] - layers) <= 0.05 * values["trace.wall_s"]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(str(tmp_path), "hodge-ci", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
