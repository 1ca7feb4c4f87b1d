"""Design-scan throughput, checkpoint resume, and tolerance-MC determinism.

Three claims of the design layer (``repro.design``), measured and asserted:

* **Throughput.**  A ``>= 10^5``-point device grid (gate capacitance x
  junction capacitance x temperature) runs through the analytic engine via
  the ordinary scan path — each chunk is one device table and one
  ``Engine.solve_devices`` call for its on/off biases — and the end-to-end
  rate is recorded in-process and with the chunk fan-out.
* **Resume bit-identity.**  A checkpointed scan killed mid-run (armed
  ``design.chunk`` fault) must resume from its persisted chunks and produce
  a feasibility map *byte-identical* to an uninterrupted run, while
  actually recomputing only the missing chunks.
* **Schedule-independent tolerance MC.**  Per-point tolerance-Monte-Carlo
  yield must be identical for any worker count, because every element draws
  from its own SHA-256-derived seed stream.

Results go to ``BENCH_design.json``.

Environment overrides (used by the CI smoke run):

``REPRO_BENCH_DESIGN_POINTS_A`` / ``REPRO_BENCH_DESIGN_POINTS_B``
    Grid points of the two capacitance axes (defaults 250 / 400 — with the
    2-point temperature axis a 200k-point grid; the floor the acceptance
    criterion asks for is 10^5).
``REPRO_BENCH_DESIGN_TEMPS``
    Temperature axis length (default 2).
``REPRO_BENCH_DESIGN_WORKERS``
    Worker processes for the big-grid chunk fan-out (default 4; the grid
    is also timed in-process).
``REPRO_BENCH_DESIGN_SAMPLES``
    Tolerance-MC samples per point in the determinism check (default 24).
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.design import DesignSpec, DeviceScan
from repro.errors import FaultInjected
from repro.io.results import ResultCache
from repro.resilience import FaultInjector

try:
    from .conftest import print_experiment_header
except ImportError:  # executed directly
    from conftest import print_experiment_header

POINTS_A = int(os.environ.get("REPRO_BENCH_DESIGN_POINTS_A", "250"))
POINTS_B = int(os.environ.get("REPRO_BENCH_DESIGN_POINTS_B", "400"))
TEMPS = int(os.environ.get("REPRO_BENCH_DESIGN_TEMPS", "2"))
WORKERS = int(os.environ.get("REPRO_BENCH_DESIGN_WORKERS", "4"))
SAMPLES = int(os.environ.get("REPRO_BENCH_DESIGN_SAMPLES", "24"))

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_design.json"

#: Constraint set of every benchmark scan; ``on_off_ratio`` forces the
#: per-point engine solves (the scan cannot shortcut to closed forms).
CONSTRAINTS = [
    {"type": "gain", "threshold": 1.0},
    {"type": "on_off_ratio", "threshold": 10.0},
    {"type": "max_temperature"},
]


def grid_spec() -> DesignSpec:
    """The big throughput grid (POINTS_A x POINTS_B x TEMPS points)."""
    return DesignSpec.from_dict({
        "name": "bench_grid",
        "engine": "analytic",
        "axes": [
            {"parameter": "gate_capacitance", "start": 5e-19,
             "stop": 8e-18, "points": POINTS_A, "spacing": "log"},
            {"parameter": "junction_capacitance", "start": 2e-19,
             "stop": 4e-18, "points": POINTS_B, "spacing": "log"},
            {"parameter": "temperature",
             "values": list(np.linspace(0.5, 4.0, TEMPS))},
        ],
        "constraints": CONSTRAINTS,
        "chunk_size": 2048,
    })


def resume_spec() -> DesignSpec:
    """A small checkpointed scan for the kill/resume bit-identity check."""
    return DesignSpec.from_dict({
        "name": "bench_resume",
        "engine": "analytic",
        "axes": [
            {"parameter": "gate_capacitance", "start": 5e-19,
             "stop": 8e-18, "points": 240, "spacing": "log"},
        ],
        "constraints": CONSTRAINTS,
        "chunk_size": 30,
    })


def tolerance_spec() -> DesignSpec:
    """A toleranced scan for the worker-count determinism check."""
    return DesignSpec.from_dict({
        "name": "bench_tolerance",
        "engine": "analytic",
        "axes": [
            {"parameter": "gate_capacitance", "start": 8e-19,
             "stop": 5e-18, "points": 8, "spacing": "log"},
        ],
        "constraints": CONSTRAINTS,
        "seed": 11,
        "tolerances": {
            "junction_capacitance": {"kind": "tolerance", "tolerance": 0.2},
            "gate_capacitance": {"kind": "tolerance", "tolerance": 0.2,
                                 "distribution": "normal"},
        },
        "tolerance_samples": SAMPLES,
        "chunk_size": 2,
    })


def _comparable(feasibility) -> str:
    """The map's canonical JSON minus the run-dependent chunk counters."""
    payload = feasibility.to_payload()
    payload.pop("chunks_computed")
    payload.pop("chunks_resumed")
    return json.dumps(payload, sort_keys=True)


def measure_throughput() -> dict:
    """Time the big grid end-to-end, in-process and fanned out."""
    spec = grid_spec()
    start = time.perf_counter()
    serial = DeviceScan(spec).run(workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    feasibility = DeviceScan(spec).run(workers=WORKERS)
    elapsed = time.perf_counter() - start
    return {
        "grid_points": len(spec),
        "workers": WORKERS,
        "elapsed_s": round(elapsed, 3),
        "points_per_s": round(len(spec) / elapsed, 1),
        "serial_elapsed_s": round(serial_s, 3),
        "serial_points_per_s": round(len(spec) / serial_s, 1),
        "workers_identical": _comparable(serial) == _comparable(feasibility),
        "feasible_fraction": round(feasibility.feasible_fraction, 4),
        "counts": feasibility.counts(),
        "engine": feasibility.engine,
    }


def check_resume() -> dict:
    """Kill a checkpointed scan mid-run; resuming must be bit-identical."""
    spec = resume_spec()
    clean = _comparable(DeviceScan(spec).run())
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        interrupted = DeviceScan(spec, cache=cache)
        chaos = FaultInjector(seed=5)
        chaos.arm("design.chunk", after=3, times=1)
        killed = False
        try:
            with chaos:
                interrupted.run()
        except FaultInjected:
            killed = True
        resumer = DeviceScan(spec, cache=cache)
        resumed = resumer.run()
        return {
            "chunks_before_kill": interrupted.chunks_computed,
            "chunks_recomputed_on_resume": resumer.chunks_computed,
            "chunks_resumed": resumer.chunks_resumed,
            "killed_mid_run": killed,
            "bit_identical": _comparable(resumed) == clean,
        }


def check_tolerance_determinism() -> dict:
    """Per-point MC yield must match exactly across worker counts."""
    spec = tolerance_spec()
    serial = DeviceScan(spec).run(workers=1)
    parallel = DeviceScan(spec).run(workers=3)
    identical = _comparable(serial) == _comparable(parallel)
    yields = serial.yields
    assert yields is not None
    return {
        "grid_points": len(spec),
        "samples_per_point": spec.tolerance_samples,
        "yield_min": round(float(np.nanmin(yields)), 4),
        "yield_mean": round(float(np.nanmean(yields)), 4),
        "workers_compared": [1, 3],
        "identical_across_workers": identical,
    }


def run_benchmark() -> dict:
    """Run all three measurements and write ``BENCH_design.json``."""
    throughput = measure_throughput()
    resume = check_resume()
    tolerance = check_tolerance_determinism()
    payload = {
        "benchmark": "design_scan",
        "workload": f"{throughput['grid_points']}-point device grid "
                    "(gate x junction capacitance x temperature), "
                    "analytic engine, one batched on/off solve per chunk",
        "throughput": throughput,
        "resume": resume,
        "tolerance_mc": tolerance,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_design_scan_benchmark():
    """Throughput recorded; resume bit-identical; MC yield schedule-free."""
    print_experiment_header(
        "DESIGN", "device-grid feasibility scan: throughput, resume, yield")
    payload = run_benchmark()
    throughput = payload["throughput"]
    print(f"grid           : {throughput['grid_points']} points, "
          f"{throughput['workers']} workers")
    print(f"elapsed        : {throughput['elapsed_s']:.2f} s "
          f"({throughput['points_per_s']:.0f} points/s; in-process "
          f"{throughput['serial_points_per_s']:.0f} points/s)")
    print(f"feasible       : {throughput['feasible_fraction'] * 100:.1f}%")
    resume = payload["resume"]
    print(f"resume         : killed after {resume['chunks_before_kill']} "
          f"chunks, recomputed {resume['chunks_recomputed_on_resume']}, "
          f"resumed {resume['chunks_resumed']}, "
          f"bit-identical={resume['bit_identical']}")
    tolerance = payload["tolerance_mc"]
    print(f"tolerance MC   : yield mean {tolerance['yield_mean']:.3f}, "
          f"identical across workers="
          f"{tolerance['identical_across_workers']}")
    print(f"written to     : {OUTPUT_PATH}")
    assert throughput["points_per_s"] > 0
    assert throughput["workers_identical"]
    assert resume["killed_mid_run"]
    assert resume["bit_identical"]
    assert resume["chunks_resumed"] > 0
    assert tolerance["identical_across_workers"]


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
