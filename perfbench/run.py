"""Run one benchmark workload of the ``repro`` toolkit and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design_scan --seed 7 --seconds 55 --trace 0

The run draws every input from ``--seed``, warms the compiled Monte-Carlo
kernel once (users pay its build once per machine), measures set-up time
in fresh interpreters, then repeats the workload's timed iterations for
``--seconds`` and checks every output.  ``--trace 0`` reports the
end-to-end metrics (medians over iterations); ``--trace 1`` reports the
per-layer metrics of a traced run instead, with a table of where the time
went.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes (the compiled kernel, temporary result caches)
stays under ``.perfbench/`` in the checkout.  See ``perfbench/README.md``
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run.
SETUP_PROBES = 7

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

#: Trace coverage below which a workload is flagged.
COVERAGE_FLOOR = 0.95


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The command line (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design_scan", "engine_sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long to repeat the timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests use ~0.02)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_JIT_CACHE_DIR"] = str(WORK / "jit")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------- set-up


def setup_probe(args: argparse.Namespace) -> int:
    """Set up as a run does, then report the phase times on stdout.

    The parent times this interpreter from its launch to the report line:
    interpreter start, ``import repro``, the engine registry, the JIT
    backend resolution and the workload inputs — everything before the
    first timed call.
    """
    start = time.perf_counter()
    import repro  # noqa: F401
    imported = time.perf_counter()
    from repro.engines import list_engines
    list_engines()
    registered = time.perf_counter()
    from repro.montecarlo.jit import jit_backend
    jit_backend()
    resolved = time.perf_counter()
    import workloads
    workloads.build(args.workload, args.seed, args.scale)
    built = time.perf_counter()
    print(json.dumps({"setup.import_s": imported - start,
                      "setup.registry_s": registered - imported,
                      "setup.jit_s": resolved - registered,
                      "setup.inputs_s": built - resolved}), flush=True)
    return 0


class SetupProbe:
    """Times the set-up of a run in fresh interpreters.

    Parameters
    ----------
    args:
        The run's command line; each probe sets up the same workload and
        seed at the same scale.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed",
                        str(args.seed), "--scale", str(args.scale),
                        "--setup-probe"]
        #: Probes per run; ``setup_s`` is the fastest.
        self.count = SETUP_PROBES if args.scale >= 1.0 else 1

    def run(self) -> Tuple[float, Dict[str, float]]:
        """Seconds from launch to ready, and the phases of that time.

        Probes keep their bytecode in ``.perfbench/pycache``, so every
        probe after the first imports compiled modules, as an installed
        package does, whatever ``__pycache__`` state or
        ``PYTHONDONTWRITEBYTECODE`` the checkout comes with.
        """
        environment = dict(os.environ,
                           PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        environment.pop("PYTHONDONTWRITEBYTECODE", None)
        start = time.perf_counter()
        with subprocess.Popen(self.command, stdout=subprocess.PIPE,
                              text=True, env=environment) as probe:
            assert probe.stdout is not None
            line = probe.stdout.readline()
            total = time.perf_counter() - start
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or not line:
                raise RuntimeError(f"set-up probe failed: {self.command}")
        phases = json.loads(line)
        phases["setup.interpreter_s"] = total - sum(phases.values())
        return total, phases


# ------------------------------------------------------------- metadata


def git_head() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = found.stdout.split()
    if found.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_metadata(args: argparse.Namespace, backend: str) -> Dict:
    """What a snapshot needs to be compared with another."""
    import numpy
    import scipy

    return {"commit": git_head(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jit_backend": backend,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "trace": args.trace}


# ------------------------------------------------------------- measuring


def iterate(workload, tally, scratch: Path, *, workers: int,
            tracer=None) -> Tuple[object, Optional[Dict]]:
    """One checked iteration and, when tracing, its span snapshot.

    The spans are installed only while the iteration's timed passes run,
    so the snapshot covers exactly them and the checks stay untraced.  The
    iteration's result caches live in a directory removed after the checks,
    so later iterations do not write into an ever fuller scratch tree.
    """
    directory = Path(tempfile.mkdtemp(prefix="iteration-", dir=scratch))
    if tracer is not None:
        from spans import install_layer_spans

        tracer.take()
        install_layer_spans(tracer)
    try:
        iteration = workload.run(directory, workers=workers)
    finally:
        if tracer is not None:
            tracer.restore()
    snapshot = tracer.take() if tracer is not None else None
    workload.check(iteration, tally)
    iteration.outputs = []
    shutil.rmtree(directory)
    return iteration, snapshot


def best_steps(iterations) -> Dict[Tuple[str, str], float]:
    """Each step's fastest time over the iterations."""
    best: Dict[Tuple[str, str], float] = {}
    for iteration in iterations:
        for kind, step, seconds in iteration.steps:
            key = (kind, step)
            best[key] = min(seconds, best.get(key, seconds))
    return best


def timings(iterations) -> Dict[str, float]:
    """Best-case pass times and rates, built from per-step best times.

    The host this benchmark was tuned on alternates, for tens of seconds
    at a time, between a fast regime and one ~1.6x slower, so a median
    follows the regime mix of the run.  The fastest time of each step is
    steady, and a pass's time is the sum over its steps.
    """
    best = best_steps(iterations)
    cold = sum(t for (kind, _), t in best.items() if kind == "cold")
    warm = sum(t for (kind, _), t in best.items() if kind == "warm")
    first = iterations[0]
    metrics = {"cold_s": cold, "warm_s": warm,
               "wall_s": cold + first.warm_passes * warm}
    for name, (units, steps) in first.rates.items():
        metrics[name] = units / sum(best[step] for step in steps)
    return metrics


def end_to_end(workload, tally, scratch: Path, args: argparse.Namespace,
               probe) -> Tuple[Dict[str, float], Dict[str, list]]:
    """The end-to-end metrics and the per-iteration samples behind them.

    Set-up probes are spread over the run, one before each of the first
    iterations, so they meet the same mix of host regimes as the steps.
    Everything runs in-process: on the 2-core host a two-worker design
    scan needs both cores in their fast regime at once, and its best times
    spread three times wider between runs than in-process ones.
    """
    iterations, setups = [], []
    deadline = time.perf_counter() + args.seconds
    while len(setups) < probe.count or time.perf_counter() < deadline:
        if len(setups) < probe.count:
            setups.append(probe.run())
        iterations.append(iterate(workload, tally, scratch, workers=1)[0])
    metrics = timings(iterations)
    metrics["setup_s"] = min(total for total, _ in setups)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"iteration_wall_s": [it.wall_s for it in iterations],
               "setup_s": [total for total, _ in setups]}
    return metrics, samples


def per_layer(workload, tally, scratch: Path, args: argparse.Namespace,
              probe) -> Dict[str, float]:
    """The per-layer metrics: traced iterations beside untraced ones.

    Rounds of one untraced and one traced in-process iteration (spans from
    worker processes are not collected) repeat for ``--seconds``; on
    ``design_scan`` each round adds an untraced two-worker iteration for
    the fan-out speed-up.  The breakdown comes from the traced iteration
    with the median wall time, so its self times and ``trace.other_s`` add
    up to its ``trace.wall_s``.
    """
    from spans import Tracer, layer_breakdown

    setups = [probe.run() for _ in range(probe.count)]
    tracer = Tracer()
    kinds = {"untraced": (1, None), "traced": (1, tracer)}
    if args.workload == "design_scan":
        kinds["workers2"] = (2, None)
    runs: Dict[str, list] = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + args.seconds
    while not runs["traced"] or time.perf_counter() < deadline:
        for kind, (workers, kind_tracer) in kinds.items():
            runs[kind].append(iterate(workload, tally, scratch,
                                      workers=workers, tracer=kind_tracer))
    traced = sorted(runs["traced"], key=lambda run: run[0].wall_s)
    iteration, snapshot = traced[(len(traced) - 1) // 2]
    untraced = timings([it for it, _ in runs["untraced"]])
    metrics = layer_breakdown(snapshot, iteration.wall_s)
    metrics.update({
        "trace.wall_s": iteration.wall_s,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": timings([it for it, _ in traced])["wall_s"]
        - untraced["wall_s"],
        "design.yield_samples_per_s":
            untraced.get("design.yield_samples_per_s", 0.0),
        "fanout.inprocess_s": 0.0, "fanout.workers2_s": 0.0,
        "fanout.speedup": 0.0,
    })
    if "workers2" in runs:
        fanned = timings([it for it, _ in runs["workers2"]])["cold_s"]
        metrics.update({"fanout.inprocess_s": untraced["cold_s"],
                        "fanout.workers2_s": fanned,
                        "fanout.speedup": untraced["cold_s"] / fanned})
    phases = [breakdown for _, breakdown in setups]
    for name in phases[0]:
        metrics[name] = statistics.median(p[name] for p in phases)
    return metrics


# --------------------------------------------------------------- report


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from spans import SPANS

    units: Dict[str, str] = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "io.cache_store.bytes": "bytes", "io.cache_load.bytes": "bytes",
        "io.cache_hit_ratio": "ratio",
        "design.chunks_computed": "count", "design.chunks_resumed": "count",
        "resilience.checkpoint.chunks_computed": "count",
        "resilience.checkpoint.chunks_resumed": "count",
        "design.yield_samples_per_s": "1/s",
        "fanout.inprocess_s": "s", "fanout.workers2_s": "s",
        "fanout.speedup": "ratio",
        "setup.interpreter_s": "s", "setup.import_s": "s",
        "setup.registry_s": "s", "setup.jit_s": "s", "setup.inputs_s": "s",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.other_s": "s",
        "trace.coverage": "ratio",
    })
    return units


def print_layer_table(metrics: Dict[str, float]) -> None:
    """Where the traced wall time went, largest self time first."""
    from spans import SPANS

    wall = metrics["trace.wall_s"]
    rows = [(metrics[f"{name}.self_s"], name, metrics[f"{name}.calls"])
            for name in SPANS if metrics[f"{name}.calls"]]
    rows.append((metrics["trace.other_s"], "other", ""))
    print(f"{'layer span':<28}{'calls':>10}{'self s':>11}{'share':>8}")
    for self_s, name, calls in sorted(rows, reverse=True):
        print(f"{name:<28}{calls!s:>10}{self_s:>11.4f}"
              f"{self_s / wall:>8.1%}")
    print(f"{'traced wall':<38}{wall:>11.4f}"
          f"   (untraced {metrics['trace.untraced_wall_s']:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:+.4f} s)")
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        print(f"FLAG: spans cover only {metrics['trace.coverage']:.1%} of "
              f"the traced wall (floor {COVERAGE_FLOOR:.0%})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload; print the report and the result line."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    prepare_environment()
    if args.setup_probe:
        return setup_probe(args)

    import workloads
    from repro.montecarlo.jit import jit_backend

    backend = jit_backend()
    probe = SetupProbe(args)
    workload = workloads.build(args.workload, args.seed, args.scale)
    tally = workloads.Tally()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK / "tmp"))
    try:
        if args.trace:
            metrics = per_layer(workload, tally, scratch, args, probe)
            units, samples = per_layer_units(), {}
        else:
            metrics, samples = end_to_end(workload, tally, scratch, args,
                                          probe)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"meta": run_metadata(args, backend)}))
    if samples:
        print(json.dumps({"samples": samples}))
    if args.trace:
        print_layer_table(metrics)
    else:
        for name, unit in units.items():
            print(f"{name:<14}{metrics[name]:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
