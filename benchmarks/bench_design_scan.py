"""Design-scan throughput, checkpoint resume, and tolerance-MC determinism.

Four claims of the design layer (``repro.design``), measured and asserted:

* **Throughput.**  A ``>= 10^5``-point device grid (gate capacitance x
  junction capacitance x temperature) runs through the analytic engine via
  the ordinary scan path — each chunk is one device table and one
  ``Engine.solve_devices`` call for its on/off biases — and the end-to-end
  rate is recorded in-process and with the chunk fan-out.
* **Cached throughput.**  The same grid scanned cold into a fresh
  :class:`~repro.io.results.ResultCache` (every chunk stored) and then
  replayed warm (every chunk loaded); both rates and the artifact bytes
  per point are recorded, and both maps must equal the uncached map byte
  for byte.
* **Resume bit-identity.**  A checkpointed scan killed mid-run (armed
  ``design.chunk`` fault) must resume from its persisted chunks and produce
  a feasibility map *byte-identical* to an uninterrupted run, while
  actually recomputing only the missing chunks.
* **Schedule-independent tolerance MC.**  Per-point tolerance-Monte-Carlo
  yield must be identical for any worker count, because every element draws
  from its own SHA-256-derived seed stream.

A small-batch row (``small_batch``) times the per-call cost of the analytic
array path at the sizes the scans actually use: a 16-point
``drain_current_map`` of the scalar reference model and a 512-row
``AnalyticEngine.solve_devices`` batch.  It also counts the
``orthodox_rate_vec`` calls per evaluation (outside the timed runs) and
raises unless each evaluation makes exactly one.

An exact-tier row (``exact_tier``) times ``MasterEngine.solve_devices``
(one closed-form birth-death chain per point) over the big grid's devices
at their on/off biases, in blocks of the grid's chunk size, in-process.
It records the largest deviation from an independent reference, the
stacked solve of ``MasterEquationSolver.sweep_source`` on each row's
circuit, over a random subsample of rows, as a fraction of each row's
peak current; the solver's own rate on that subsample; and the
rate-kernel calls per block, raising above one.

Results go to ``BENCH_design.json``.  The pytest function and the script
entry (``PYTHONPATH=src python benchmarks/bench_design_scan.py``) raise on
the same gates (:func:`check`).

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
from typing import Tuple

import numpy as np

from repro.compact import AnalyticSETModel, set_model
from repro.design import DesignSpec, DeviceScan, FeasibilityMap
from repro.devices import SETTransistor
from repro.devices.set_transistor import DRAIN_JUNCTION, GATE_SOURCE
from repro.engines import DeviceTable, get_engine
from repro.errors import FaultInjected
from repro.io.results import ResultCache, source_digest
from repro.master import MasterEquationSolver
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

#: The small-batch row: a 4 x 4 map and a 512-row device batch.
MAP_AXIS_POINTS = 4
BATCH_ROWS = 512
SMALL_CALLS = 200
SMALL_REPEATS = 5

#: Rows of the big grid checked against the master-equation solver.
EXACT_SUBSAMPLE = 48

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


def measure_throughput() -> Tuple[dict, FeasibilityMap]:
    """Time the big grid end-to-end, in-process and fanned out.

    Returns the summary and the in-process map (the reference for
    :func:`measure_cached`).
    """
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
    }, serial


def measure_cached(reference: FeasibilityMap) -> dict:
    """Scan the big grid cold into a fresh cache, then replay it warm.

    Both runs are in-process; the package-source digest folded into cache
    keys (memoised per process) is computed before timing.  Raises
    ``AssertionError`` unless both maps equal ``reference`` byte for byte.
    """
    spec = grid_spec()
    expected = _comparable(reference)
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        source_digest()
        start = time.perf_counter()
        cold = DeviceScan(spec, cache=cache).run()
        cold_s = time.perf_counter() - start
        artifact_bytes = sum(path.stat().st_size
                             for path in Path(directory).glob("*.json"))
        start = time.perf_counter()
        replay = DeviceScan(spec, cache=cache)
        warm = replay.run()
        warm_s = time.perf_counter() - start
    chunks = len(replay.chunk_plan())
    assert replay.chunks_resumed == chunks, "warm replay recomputed chunks"
    assert _comparable(cold) == expected, "cached map differs from uncached"
    assert _comparable(warm) == expected, "replayed map differs from uncached"
    return {
        "grid_points": len(spec),
        "chunks": chunks,
        "cold_elapsed_s": round(cold_s, 3),
        "cold_points_per_s": round(len(spec) / cold_s, 1),
        "warm_elapsed_s": round(warm_s, 3),
        "warm_points_per_s": round(len(spec) / warm_s, 1),
        "artifact_bytes_per_point": round(artifact_bytes / len(spec), 2),
        "identical_to_uncached": True,
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


def best_time(function, calls: int, repeats: int = SMALL_REPEATS) -> float:
    """Shortest per-call wall time over ``repeats`` runs of ``calls`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            function()
        times.append((time.perf_counter() - start) / calls)
    return min(times)


def rate_calls(function) -> int:
    """``orthodox_rate_vec`` calls the compact model makes in ``function()``."""
    kernel = set_model.orthodox_rate_vec
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    set_model.orthodox_rate_vec = counted
    try:
        function()
    finally:
        set_model.orthodox_rate_vec = kernel
    return calls


def measure_small_batch() -> dict:
    """Per-call cost of the analytic array path on small batches.

    Raises ``AssertionError`` unless the map and the batch solve each make
    exactly one rate-kernel call.
    """
    model = AnalyticSETModel(temperature=1.0)
    drains = np.linspace(-0.05, 0.05, MAP_AXIS_POINTS)
    gates = np.linspace(0.0, 0.2, MAP_AXIS_POINTS)
    rng = np.random.default_rng(3)
    table = DeviceTable(
        base=SETTransistor(),
        columns={"gate_capacitance": 10.0 ** rng.uniform(-18.3, -17.1,
                                                         BATCH_ROWS),
                 "junction_capacitance": 10.0 ** rng.uniform(-18.7, -17.4,
                                                             BATCH_ROWS)},
        temperature=rng.uniform(0.5, 4.0, BATCH_ROWS))
    engine = get_engine("analytic")
    biases = np.full((BATCH_ROWS, 2), 0.02)
    on_off = np.array([0.01, 0.002])

    def evaluate_map():
        return model.drain_current_map(drains, gates)

    def evaluate_batch():
        return engine.solve_devices(table, biases, on_off)

    counts = [rate_calls(evaluate_map), rate_calls(evaluate_batch)]
    if counts != [1, 1]:
        raise AssertionError(f"rate-kernel calls per evaluation {counts}, "
                             "expected one each")
    map_s = best_time(evaluate_map, SMALL_CALLS)
    batch_s = best_time(evaluate_batch, SMALL_CALLS // 4)
    return {
        "map_points": MAP_AXIS_POINTS**2,
        "map_ms_per_call": round(map_s * 1e3, 4),
        "batch_rows": BATCH_ROWS,
        "batch_biases": on_off.size,
        "batch_ms_per_call": round(batch_s * 1e3, 4),
        "rate_calls_per_evaluation": max(counts),
    }


def measure_exact_tier() -> dict:
    """Throughput and agreement of the exact tier on the big grid.

    Raises ``AssertionError`` if a block makes more than one rate-kernel
    call (no window widens at the grid's temperatures).
    """
    spec = grid_spec()
    grids = np.meshgrid(*[axis.grid() for axis in spec.axes], indexing="ij")
    columns = {axis.parameter: grid.ravel()
               for axis, grid in zip(spec.axes, grids)}
    table = DeviceTable(spec.base_device(), columns,
                        columns.pop("temperature"))
    gates = np.outer(table.gate_period,
                     [spec.on_gate_fraction, spec.off_gate_fraction])
    drain = spec.drain_voltage
    engine = get_engine("master")
    blocks = [np.arange(first, min(first + spec.chunk_size, len(table)))
              for first in range(0, len(table), spec.chunk_size)]
    block_tables = [table.take(rows) for rows in blocks]

    def evaluate(index):
        return engine.solve_devices(block_tables[index], gates[blocks[index]],
                                    drain)

    calls = rate_calls(lambda: evaluate(0))
    if calls > 1:
        raise AssertionError(f"{calls} rate-kernel calls per block, "
                             "expected one")
    start = time.perf_counter()
    currents = np.concatenate([evaluate(index)
                               for index in range(len(blocks))])
    elapsed = time.perf_counter() - start
    rows = np.random.default_rng(7).choice(
        len(table), min(EXACT_SUBSAMPLE, len(table)), replace=False)
    start = time.perf_counter()
    looped = np.array([MasterEquationSolver(
        table.device(row).build_circuit(drain_voltage=drain),
        temperature=float(table.temperature[row])).sweep_source(
            GATE_SOURCE, gates[row], DRAIN_JUNCTION)[1] for row in rows])
    solver_s = time.perf_counter() - start
    peak = np.abs(looped).max(axis=1)
    deviation = (np.abs(currents[rows] - looped).max(axis=1)
                 / np.where(peak > 0.0, peak, 1.0))
    return {
        "grid_points": len(table),
        "biases_per_point": gates.shape[1],
        "rows_per_call": spec.chunk_size,
        "elapsed_s": round(elapsed, 3),
        "points_per_s": round(len(table) / elapsed, 1),
        "us_per_point": round(elapsed / len(table) * 1e6, 3),
        "sampled_rows": len(rows),
        "solver_points_per_s": round(len(rows) / solver_s, 1),
        "max_deviation_of_row_peak": float(f"{deviation.max():.3g}"),
        "rate_calls_per_evaluation": calls,
    }


def run_benchmark() -> dict:
    """Run all six measurements and write ``BENCH_design.json``."""
    throughput, reference = measure_throughput()
    cached = measure_cached(reference)
    resume = check_resume()
    tolerance = check_tolerance_determinism()
    payload = {
        "benchmark": "design_scan",
        "workload": f"{throughput['grid_points']}-point device grid "
                    "(gate x junction capacitance x temperature), "
                    "analytic engine, one batched on/off solve per chunk",
        "throughput": throughput,
        "cached": cached,
        "resume": resume,
        "tolerance_mc": tolerance,
        "small_batch": measure_small_batch(),
        "exact_tier": measure_exact_tier(),
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
    cached = payload["cached"]
    print(f"cached         : cold {cached['cold_points_per_s']:.0f} "
          f"points/s, warm {cached['warm_points_per_s']:.0f} points/s, "
          f"{cached['artifact_bytes_per_point']:.1f} artifact bytes/point")
    resume = payload["resume"]
    print(f"resume         : killed after {resume['chunks_before_kill']} "
          f"chunks, recomputed {resume['chunks_recomputed_on_resume']}, "
          f"resumed {resume['chunks_resumed']}, "
          f"bit-identical={resume['bit_identical']}")
    tolerance = payload["tolerance_mc"]
    print(f"tolerance MC   : yield mean {tolerance['yield_mean']:.3f}, "
          f"identical across workers="
          f"{tolerance['identical_across_workers']}")
    small = payload["small_batch"]
    print(f"small batch    : {small['map_points']}-point map "
          f"{small['map_ms_per_call']:.3f} ms, {small['batch_rows']}-row "
          f"batch {small['batch_ms_per_call']:.3f} ms, "
          f"{small['rate_calls_per_evaluation']} rate-kernel call per "
          "evaluation")
    exact = payload["exact_tier"]
    print(f"exact tier     : {exact['points_per_s']:.0f} points/s "
          f"({exact['biases_per_point']} biases each), max deviation "
          f"{exact['max_deviation_of_row_peak']:.1e} of row peak over "
          f"{exact['sampled_rows']} rows, "
          f"{exact['rate_calls_per_evaluation']} rate-kernel call per block")
    print(f"written to     : {OUTPUT_PATH}")
    check(payload)


def check(payload: dict) -> None:
    """Raise unless ``payload`` passes every gate of the benchmark."""
    throughput = payload["throughput"]
    resume = payload["resume"]
    exact = payload["exact_tier"]
    gates = {
        "throughput points_per_s > 0": throughput["points_per_s"] > 0,
        "maps identical across workers": throughput["workers_identical"],
        "resume run killed mid-run": resume["killed_mid_run"],
        "resumed map bit-identical": resume["bit_identical"],
        "resume reused chunks": resume["chunks_resumed"] > 0,
        "tolerance yields identical across workers":
            payload["tolerance_mc"]["identical_across_workers"],
        "small batch: one rate-kernel call per evaluation":
            payload["small_batch"]["rate_calls_per_evaluation"] == 1,
        "exact tier: one rate-kernel call per block":
            exact["rate_calls_per_evaluation"] == 1,
        "exact tier within 1e-12 of row peak":
            exact["max_deviation_of_row_peak"] <= 1e-12,
    }
    failed = [name for name, held in gates.items() if not held]
    if failed:
        raise AssertionError("gates failed: " + "; ".join(failed))


if __name__ == "__main__":
    payload = run_benchmark()
    print(json.dumps(payload, indent=2))
    check(payload)
