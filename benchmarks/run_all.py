"""Run every performance benchmark and append a trajectory snapshot.

Each ``bench_*`` performance module writes its own ``BENCH_<name>.json`` in
the repository root; those files only ever hold the *latest* numbers.  This
driver runs them all (or, with ``--merge-only``, just collects the existing
files) and appends one timestamped snapshot combining every payload to
``BENCH_trajectory.json``, so the performance history survives across PRs
instead of being overwritten.  Each snapshot is stamped with the commit
(``git rev-parse HEAD``), ``os.cpu_count()``, the Python and NumPy versions
and the resolved ``jit_backend()``, so snapshots taken on different hosts or
commits can be told apart:

.. code-block:: console

   PYTHONPATH=src python benchmarks/run_all.py            # run + append
   PYTHONPATH=src python benchmarks/run_all.py --merge-only

CI's benchmark-smoke job runs this with shrunken ``REPRO_BENCH_*`` budgets,
so every PR leaves a (noisy but monotone-comparable) snapshot behind.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_trajectory.json"

#: The performance benchmark modules, in dependency-free execution order.
#: (The ``bench_e*`` experiment scripts reproduce paper figures, not
#: performance numbers, and are not part of the trajectory.)
BENCHMARK_MODULES = (
    "bench_kernel_throughput",
    "bench_ensemble_throughput",
    "bench_master_solver",
    "bench_engine_dispatch",
    "bench_jit_kernel",
    "bench_resilience_overhead",
    "bench_design_scan",
)


def git_commit() -> Optional[str]:
    """``git rev-parse HEAD`` of the checkout, ``None`` outside a work tree."""
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"],
                                   cwd=REPO_ROOT, capture_output=True,
                                   text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else None


def host_metadata() -> dict:
    """Commit, CPU count, interpreter/NumPy versions and the JIT backend."""
    import numpy

    from repro.montecarlo.jit import jit_backend

    return {
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_backend": jit_backend(),
    }


def run_benchmarks() -> dict:
    """Execute every benchmark module's ``run_benchmark()`` entry point."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    payloads = {}
    for module_name in BENCHMARK_MODULES:
        module = __import__(module_name)
        print(f"[run_all] {module_name} ...", flush=True)
        payloads[module_name] = module.run_benchmark()
    return payloads


def collect_existing() -> dict:
    """Read every ``BENCH_*.json`` already in the repository root."""
    payloads = {}
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        if path == TRAJECTORY_PATH:
            continue
        payloads[path.stem] = json.loads(path.read_text())
    return payloads


def append_snapshot(payloads: dict) -> dict:
    """Append one timestamped snapshot of ``payloads`` to the trajectory.

    The trajectory file is a JSON array of snapshots, oldest first; a
    corrupt or missing file starts a fresh history rather than failing the
    benchmark run.
    """
    try:
        history = json.loads(TRAJECTORY_PATH.read_text())
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    snapshot = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "meta": host_metadata(),
        "benchmarks": payloads,
    }
    history.append(snapshot)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")
    return snapshot


def main(argv=None) -> int:
    """Entry point: run (or merge) the benchmarks and append the snapshot."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--merge-only", action="store_true",
                        help="skip running; fold the existing BENCH_*.json "
                             "files into the trajectory")
    arguments = parser.parse_args(argv)
    if arguments.merge_only:
        payloads = collect_existing()
    else:
        run_benchmarks()
        # Re-read from disk so the snapshot records exactly what the
        # per-benchmark files now hold (rounded, serialisable payloads).
        payloads = collect_existing()
    if not payloads:
        print("[run_all] no BENCH_*.json payloads found", file=sys.stderr)
        return 1
    snapshot = append_snapshot(payloads)
    print(f"[run_all] appended snapshot ({len(payloads)} benchmarks) "
          f"at {snapshot['timestamp']} -> {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
