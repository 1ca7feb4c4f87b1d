"""Run every performance benchmark and append a trajectory snapshot.

Each ``bench_*`` performance module writes its own ``BENCH_<name>.json`` in
the repository root; those files only ever hold the *latest* numbers.  This
driver runs them all (or, with ``--merge-only``, just collects the existing
files) and appends one timestamped snapshot combining every payload to
``BENCH_trajectory.json``, so the performance history survives across PRs
instead of being overwritten.  Each snapshot is stamped with the commit
(``git rev-parse HEAD``), whether the work tree differs from it (``dirty``)
and the SHA-256 of that difference (``diff_sha256``, ``git diff HEAD``
outside the ``BENCH_*.json`` outputs; null when clean), ``os.cpu_count()``,
the Python and NumPy versions and the resolved ``jit_backend()``, so
snapshots taken on different hosts, commits or uncommitted trees can be
told apart:

.. code-block:: console

   PYTHONPATH=src python benchmarks/run_all.py            # run + append
   PYTHONPATH=src python benchmarks/run_all.py --merge-only

CI's benchmark-smoke job runs this with shrunken ``REPRO_BENCH_*`` budgets,
so every PR leaves a (noisy but monotone-comparable) snapshot behind.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_trajectory.json"

#: The performance benchmark modules, in dependency-free execution order.
#: (The ``bench_e*`` experiment scripts reproduce paper figures, not
#: performance numbers, and are not part of the trajectory.)
BENCHMARK_MODULES = (
    "bench_kernel_throughput",
    "bench_master_solver",
    "bench_engine_dispatch",
    "bench_jit_kernel",
    "bench_resilience_overhead",
    "bench_design_scan",
)


#: Pathspec of the files the benchmarks rewrite: a difference there says
#: nothing about the tree that was measured.
BENCHMARK_OUTPUTS = ":(exclude)BENCH_*.json"


def _git(root: Path, *arguments: str) -> Optional[bytes]:
    """Standard output of ``git arguments`` in ``root``; ``None`` on failure."""
    try:
        completed = subprocess.run(["git", *arguments], cwd=root,
                                   capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout if completed.returncode == 0 else None


def git_commit(root: Path = REPO_ROOT) -> Optional[str]:
    """``git rev-parse HEAD`` of the checkout, ``None`` outside a work tree."""
    output = _git(root, "rev-parse", "HEAD")
    commit = output.decode().strip() if output is not None else ""
    return commit or None


def git_tree_state(root: Path = REPO_ROOT
                   ) -> Tuple[Optional[bool], Optional[str]]:
    """``(dirty, diff_sha256)`` of the work tree against ``HEAD``.

    ``diff_sha256`` is the SHA-256 of ``git diff HEAD --binary`` outside the
    ``BENCH_*.json`` outputs, ``None`` when that diff is empty (``dirty``
    false); untracked files are not part of it.  Both are ``None`` outside
    a work tree.
    """
    diff = _git(root, "diff", "HEAD", "--binary", "--", ".",
                BENCHMARK_OUTPUTS)
    if diff is None:
        return None, None
    if not diff:
        return False, None
    return True, hashlib.sha256(diff).hexdigest()


def host_metadata(root: Path = REPO_ROOT) -> dict:
    """Commit and tree state, CPU count, interpreter/NumPy versions, JIT backend."""
    import numpy

    from repro.montecarlo.jit import jit_backend

    dirty, diff_sha256 = git_tree_state(root)
    return {
        "commit": git_commit(root),
        "dirty": dirty,
        "diff_sha256": diff_sha256,
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
