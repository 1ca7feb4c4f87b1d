"""Smoke test of the benchmark at shrunken sizes.

Runs ``perfbench/run.py`` as a benchmark harness would, but with
``--scale 0.05`` and ``--seconds 0`` (one iteration), and checks the
output contract: the last line is the result object, every metric named
in ``BENCHMARK.json`` is there with its unit, every check passed, and a
traced run's layer self times plus its residual add up to its wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    """One shrunken run; returns the process and its parsed last line."""
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    return done, json.loads(lines[-1]) if done.returncode == 0 else None


def units_of(result) -> dict:
    """Metric name -> unit of a result line."""
    return {name: metric["unit"]
            for name, metric in result["metrics"].items()}


def test_end_to_end_metrics():
    """``--trace 0`` prints every end-to-end metric, all positive."""
    done, result = run_benchmark("design_scan", 0)
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert units_of(result) == {metric["name"]: metric["unit"]
                                for metric in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    """``--trace 1`` prints every per-layer metric; the layers add up."""
    done, result = run_benchmark(workload, 1)
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert units_of(result) == {metric["name"]: metric["unit"]
                                for metric in SPEC["per_layer"]}
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    self_times = sum(value for name, value in values.items()
                     if name.endswith(".self_s"))
    assert self_times + values["trace.other_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9)
    assert "other" in done.stdout


def test_refuses_a_checkout_without_sources(tmp_path):
    """Without the package sources the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = run_benchmark("design_scan", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
