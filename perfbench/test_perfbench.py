"""Smoke-sized runs of the benchmark.

Each workload runs with tiny inputs and caps, untraced and traced.  The
runs must emit every metric BENCHMARK.json declares, with its unit, pass
every correctness check, and reproduce the untraced results byte for byte
in the traced pass.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace):
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail), json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    if trace:
        digests = detail["results_sha256"]
        assert digests["untraced"] == digests["traced"] != ""


def test_run_without_the_package_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_cell_over_its_cap_is_stopped_and_recorded(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from workloads import capped

    start = time.monotonic()
    status, value, error, seconds = capped(start + 0.2, time.sleep, 30)
    assert (status, value) == ("timeout", None)
    assert time.monotonic() - start < 5


def test_kept_solutions_come_from_the_program_call(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from bregrelax import bench
    from workloads import WORKLOADS, keeping_solutions, m_digest

    original = bench.solve_relaxation
    spec = WORKLOADS["admm-planted"].inputs(3, 0, True, tmp_path)[0]
    record, solved = keeping_solutions(bench.run_experiment, spec)
    assert bench.solve_relaxation is original
    assert len(solved) == 1
    assert record.m_sha256 == m_digest(solved[0].solution.M)
