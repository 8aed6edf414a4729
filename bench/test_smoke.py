"""Smoke runs of the whole benchmark harness at tiny sizes, so it cannot rot.

Run from the repository root with ``python3 -m pytest bench -q``. The
tier-1 suite does not collect this file.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def _result(workload: str, trace: int, nth: int = 0) -> dict:
    """The result line of a tiny run; ``nth`` tells repeated runs apart."""
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = _result(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(_result(workload, 1)) == counts(_result(workload, 1, nth=1))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run(tmp_path, WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
