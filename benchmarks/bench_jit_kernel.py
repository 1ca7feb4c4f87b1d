"""Compiled-kernel throughput — the native advance loop versus the interpreted one.

Every Monte-Carlo run goes through the advance loop of
:mod:`repro.montecarlo.jit`; this benchmark measures what compiling it
buys: the active backend (numba where installed, a cached C/ctypes build
otherwise) against the interpreted loop an install without a compiler
runs, which replays the same events, plus the aggregate throughput of
sequential replicas at R = 1 / 64 / 256 (near-linear scaling: the
per-event cost must not grow with the replica count).  Those long runs
enter the native loop only once per random-block refill, which hides the
cost of an entry, so sweep-scale measurements sit beside them: a 129-point
Id-Vg sweep at 2 000 events per point on ``montecarlo`` and ``ensemble``
(R = 16), and the 41-point gate sweep of the double dot of
``tests/conftest.py`` (R = None and R = 8).  Each row reports points/s and
microseconds per point, native entries per point split by kind — *run*
(the sweep's finishing entry), *root* (a new point's rate tables the loop
could not take from the sweep plan), *refill* and *link* (a configuration
not yet met at the point) — and rate evaluations per point (calls of the
rate kernel from the Monte-Carlo kernel, which evaluates a root
configuration's rate rows once per block of sweep points).  A sweep is
one run of the loop that roots its points from the plan, so the benchmark
raises when a row makes more than one root request per point, when the
SET rows make more than :data:`ROOT_REQUEST_LIMIT` root requests per
point or no fewer native entries per point than when Python answered
every point (:data:`ENTRY_LIMITS`), or when they exceed
:data:`RATE_EVALUATION_LIMIT` rate evaluations per point.

The numbers go to ``BENCH_jit.json`` in the repository root so the
performance trajectory is tracked across PRs (``benchmarks/run_all.py``
folds them into ``BENCH_trajectory.json``).  Run it either through pytest
(``pytest benchmarks/bench_jit_kernel.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_jit_kernel.py``).
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.engines import SweepAxes, get_engine
from repro.montecarlo import MonteCarloSimulator, jit_backend, jit_compiled
from repro.montecarlo import kernel as kernel_module
from repro.montecarlo.jit import (
    BACKEND_PYTHON,
    STATUS_BLOCKED,
    STATUS_DONE,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_ROOTS,
    STATUS_NEED_UNIFORM,
    resolve_advance,
)

try:
    from .conftest import print_experiment_header, standard_transistor
except ImportError:  # executed directly
    from conftest import print_experiment_header, standard_transistor
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.conftest import build_double_dot_circuit

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04
WARMUP_EVENTS = 1_000
# Event budgets; the CI smoke run shrinks them through the environment.
JIT_EVENTS = int(os.environ.get("REPRO_BENCH_JIT_EVENTS", "2000000"))
#: Events of the interpreted-loop run (the variable is named after the
#: numpy step path this row timed before every run took the advance loop).
INTERPRETED_EVENTS = int(os.environ.get("REPRO_BENCH_JIT_NUMPY_EVENTS",
                                        "200000"))
REPLICA_EVENTS = int(os.environ.get("REPRO_BENCH_JIT_REPLICA_EVENTS", "20000"))
REPLICA_COUNTS = (1, 64, 256)
SWEEP_POINTS = int(os.environ.get("REPRO_BENCH_JIT_SWEEP_POINTS", "129"))
SWEEP_EVENTS = 2_000
SWEEP_WARMUP_EVENTS = 200
SWEEP_REPEATS = 3
SWEEP_REPLICAS = 16
#: Sweep engines and their bind options.
SWEEP_ENGINES = (("montecarlo", {}),
                 ("ensemble", {"replicas": SWEEP_REPLICAS}))
#: Native entries per point of the 129-point SET sweeps when Python
#: answered every point's root request (BENCH_jit.json before the loop
#: rooted points from the sweep plan): a sweep must now make fewer.
ENTRY_LIMITS = {"montecarlo": 3.35, "ensemble": 4.71}
#: Most root requests a SET sweep point may make: the loop roots a point
#: from the sweep plan itself, so Python answers only where a root opens a
#: plan block.  A sweep opens a block per charge state its roots reach
#: and per :data:`~repro.montecarlo.kernel.PLAN_BLOCK_POINTS` points — two
#: to five on these rows at 129 points, one to three at 17 — so the limit
#: holds on sweeps of at least :data:`ROOT_GATE_POINTS` points; CI's
#: 17-point smoke sweep reads up to 0.18 and is not gated.
ROOT_REQUEST_LIMIT = 0.1
ROOT_GATE_POINTS = 129
#: The double-dot sweep of ``tests/conftest.py`` (as pinned in
#: ``tests/montecarlo/test_sweep_point_digests.py``): 41 gate-A points at
#: 250 mV and 20 K, one trajectory and an eight-replica ensemble.
DOUBLE_DOT_POINTS = 41
DOUBLE_DOT_REPLICAS = (None, 8)
REQUIRED_SPEEDUP = 10.0
#: Most rate-kernel calls a sweep point may make.  A root configuration's
#: rows are evaluated once per block of sweep points, plus the rare lazy
#: build: measured 0.16 (montecarlo) and 0.09 (ensemble) per point on the
#: 129-point sweep, 0.24 and 0.29 on CI's 17-point smoke sweep (fewer
#: points per configuration); one evaluation per point would read >= 1.
RATE_EVALUATION_LIMIT = 0.35
#: The numpy fast path's events/s recorded in BENCH_kernel.json at PR 1 —
#: the absolute reference the >= 10x ISSUE target is stated against.
RECORDED_BASELINE = 384474.2

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_jit.json"


def build_simulator(backend=None) -> MonteCarloSimulator:
    """A seeded simulator on the active backend, or on ``backend``."""
    circuit = standard_transistor().build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                                  gate_voltage=GATE_VOLTAGE)
    simulator = MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=3)
    if backend is not None:
        kernel = simulator.kernel
        kernel._jit_backend, kernel._jit_advance = resolve_advance(backend)
    return simulator


def measure_single(events: int, backend=None) -> float:
    """Steady-state events/second of one backend on the reference SET."""
    simulator = build_simulator(backend)
    state = simulator.new_state()
    simulator.run(max_events=WARMUP_EVENTS, state=state)
    start = time.perf_counter()
    result = simulator.run(max_events=events, state=state)
    elapsed = time.perf_counter() - start
    assert result.event_count == events
    return events / elapsed


def measure_replicas(replicas: int, events_per_replica: int) -> float:
    """Aggregate events/second of an R-replica ensemble run."""
    simulator = build_simulator()
    ensemble = simulator.new_ensemble(replicas)
    simulator.run_ensemble(max_events=min(500, events_per_replica),
                           ensemble=ensemble)
    start = time.perf_counter()
    result = simulator.run_ensemble(max_events=events_per_replica,
                                    ensemble=ensemble)
    elapsed = time.perf_counter() - start
    assert result.total_events == replicas * events_per_replica
    return result.total_events / elapsed


def measure_sweep(sweep, kernel, points: int) -> dict:
    """Points/s, microseconds and native entries per point of a warm sweep.

    ``sweep()`` runs the sweep once; it runs untimed first (native build,
    estimator set-up), then the best of :data:`SWEEP_REPEATS` timed sweeps
    is kept.  Entries are counted by wrapping ``kernel``'s loop callable
    and split by the status each returns: the *run* entry finishes the
    sweep, a *root* entry asks for a new point's rate tables, a *refill*
    entry for a random block, a *link* entry for a configuration not yet
    met at the point.  A sweep is one run, so it must make at most one
    root request per point.
    """
    sweep()
    advance = kernel._jit_advance
    statuses = []

    def counted(*arguments):
        status = advance(*arguments)
        statuses.append(status)
        return status

    rate_kernel = kernel_module.orthodox_rate_vec
    evaluations = []

    def counted_rates(*arguments, **options):
        evaluations.append(1)
        return rate_kernel(*arguments, **options)

    kernel._jit_advance = counted
    kernel_module.orthodox_rate_vec = counted_rates
    best = float("inf")
    try:
        for _ in range(SWEEP_REPEATS):
            statuses.clear()
            evaluations.clear()
            start = time.perf_counter()
            sweep()
            best = min(best, time.perf_counter() - start)
    finally:
        kernel_module.orthodox_rate_vec = rate_kernel
        kernel._jit_advance = advance
    kinds = {"run": (STATUS_DONE, STATUS_BLOCKED),
             "root": (STATUS_NEED_ROOTS,),
             "refill": (STATUS_NEED_EXP, STATUS_NEED_UNIFORM),
             "link": (STATUS_NEED_LINK,)}
    per_point = {kind: sum(status in codes for status in statuses) / points
                 for kind, codes in kinds.items()}
    if per_point["root"] > 1.0:
        raise RuntimeError(
            f"{per_point['root']:.2f} root requests per point; a sweep is "
            "one run that asks for each point's rate tables once")
    return {"points_per_second": round(points / best, 1),
            "us_per_point": round(best / points * 1e6, 1),
            "rate_evaluations_per_point": round(len(evaluations) / points, 2),
            "native_entries_per_point": round(len(statuses) / points, 2),
            **{f"{kind}_entries_per_point": round(value, 2)
               for kind, value in per_point.items()}}


def measure_set_sweep(engine: str, options: dict) -> dict:
    """:func:`measure_sweep` of the SET's Id-Vg sweep on ``engine``, gated."""
    device = standard_transistor()
    axes = SweepAxes(np.linspace(0.0, 2.0 * device.gate_period,
                                 SWEEP_POINTS), DRAIN_VOLTAGE)
    session = get_engine(engine).bind(
        device, temperature=TEMPERATURE, seed=3, max_events=SWEEP_EVENTS,
        warmup_events=SWEEP_WARMUP_EVENTS, **options)
    row = measure_sweep(lambda: session.sweep(axes), session.simulator.kernel,
                        SWEEP_POINTS)
    if SWEEP_POINTS >= ROOT_GATE_POINTS \
            and row["root_entries_per_point"] > ROOT_REQUEST_LIMIT:
        raise RuntimeError(
            f"{engine}: {row['root_entries_per_point']:.2f} root requests "
            f"per point; the loop should root points from the sweep plan "
            f"(limit {ROOT_REQUEST_LIMIT})")
    if row["native_entries_per_point"] >= ENTRY_LIMITS[engine]:
        raise RuntimeError(
            f"{engine}: {row['native_entries_per_point']:.2f} native entries "
            f"per point, not below the {ENTRY_LIMITS[engine]} of Python "
            f"root requests at every point")
    if row["rate_evaluations_per_point"] > RATE_EVALUATION_LIMIT:
        raise RuntimeError(
            f"{engine}: {row['rate_evaluations_per_point']:.2f} rate "
            f"evaluations per point; a root configuration's rate rows should "
            f"be evaluated once per configuration per sweep block, not once "
            f"per point (limit {RATE_EVALUATION_LIMIT})")
    return row


def measure_double_dot_sweep(replicas) -> dict:
    """:func:`measure_sweep` of the double dot's gate-A sweep."""
    simulator = MonteCarloSimulator(build_double_dot_circuit(
        bias_voltage=0.25), temperature=20.0, seed=2031)
    gates = np.linspace(0.0, 0.4, DOUBLE_DOT_POINTS)
    return measure_sweep(
        lambda: simulator.sweep_source("VGA", gates, "J_left",
                                       max_events=SWEEP_EVENTS,
                                       warmup_events=SWEEP_WARMUP_EVENTS,
                                       ensemble=replicas),
        simulator.kernel, DOUBLE_DOT_POINTS)


def run_benchmark() -> dict:
    compiled = measure_single(JIT_EVENTS)
    interpreted = measure_single(INTERPRETED_EVENTS, BACKEND_PYTHON)
    scaling = {
        str(replicas): round(measure_replicas(replicas, REPLICA_EVENTS), 1)
        for replicas in REPLICA_COUNTS
    }
    sweeps = {engine: measure_set_sweep(engine, options)
              for engine, options in SWEEP_ENGINES}
    double_dot = {("montecarlo" if replicas is None
                   else f"ensemble_{replicas}"):
                  measure_double_dot_sweep(replicas)
                  for replicas in DOUBLE_DOT_REPLICAS}
    payload = {
        "benchmark": "jit_kernel",
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 Mohm)",
        "temperature_K": TEMPERATURE,
        "drain_voltage_V": DRAIN_VOLTAGE,
        "gate_voltage_V": GATE_VOLTAGE,
        "backend": jit_backend(),
        "compiled": jit_compiled(),
        "jit_events_per_second": round(compiled, 1),
        "interpreted_events_per_second": round(interpreted, 1),
        "speedup": round(compiled / interpreted, 2),
        "speedup_vs_recorded_baseline": round(compiled / RECORDED_BASELINE,
                                              2),
        "recorded_baseline_events_per_second": RECORDED_BASELINE,
        "replica_scaling_events_per_second": scaling,
        "jit_event_budget": JIT_EVENTS,
        "interpreted_event_budget": INTERPRETED_EVENTS,
        "replica_event_budget": REPLICA_EVENTS,
        "sweep": {
            "points": SWEEP_POINTS,
            "events_per_point": SWEEP_EVENTS,
            "warmup_events_per_point": SWEEP_WARMUP_EVENTS,
            "replicas": SWEEP_REPLICAS,
            "engines": sweeps,
        },
        "double_dot_sweep": {
            "circuit": "tests/conftest.py double dot, 250 mV, 20 K",
            "points": DOUBLE_DOT_POINTS,
            "events_per_point": SWEEP_EVENTS,
            "warmup_events_per_point": SWEEP_WARMUP_EVENTS,
            "rows": double_dot,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_jit_kernel_throughput():
    print_experiment_header(
        "JIT", f"compiled advance loop >= {REQUIRED_SPEEDUP:.0f}x the "
        "interpreted loop on the SET")
    payload = run_benchmark()
    print(f"backend    : {payload['backend']}")
    print(f"compiled   : {payload['jit_events_per_second']:>12,.0f} events/s")
    print(f"interpreted: {payload['interpreted_events_per_second']:>12,.0f} "
          "events/s")
    print(f"speedup    : {payload['speedup']:>12.2f}x "
          f"({payload['speedup_vs_recorded_baseline']:.1f}x the recorded "
          "PR 1 baseline)")
    for replicas, rate in payload["replica_scaling_events_per_second"].items():
        print(f"R = {replicas:>4s}   : {rate:>12,.0f} events/s aggregate")
    rows = list(payload["sweep"]["engines"].items()) + [
        (f"double dot {name}", row) for name, row
        in payload["double_dot_sweep"]["rows"].items()]
    for name, sweep in rows:
        print(f"{name:<22s} sweep: {sweep['us_per_point']:>7,.1f} us/point, "
              f"{sweep['native_entries_per_point']:.2f} native "
              f"entries/point ({sweep['run_entries_per_point']:.2f} run, "
              f"{sweep['root_entries_per_point']:.2f} root, "
              f"{sweep['refill_entries_per_point']:.2f} refill, "
              f"{sweep['link_entries_per_point']:.2f} link), "
              f"{sweep['rate_evaluations_per_point']:.2f} rate "
              "evaluations/point")
    print(f"written to : {OUTPUT_PATH}")
    # One native call per run: an R = 16 point (warm-up plus estimate) must
    # not enter the native loop once per replica.
    ensemble = payload["sweep"]["engines"]["ensemble"]
    assert ensemble["native_entries_per_point"] < payload["sweep"]["replicas"]
    if not payload["compiled"]:
        import pytest

        pytest.skip("no native backend (interpreted fallback active); "
                    "throughput target not applicable")
    assert payload["speedup"] >= REQUIRED_SPEEDUP
    # Sequential replicas must scale near-linearly: aggregate throughput at
    # R = 256 stays within 2x of the single-replica rate (i.e. total wall
    # time grows ~linearly in R, with no super-linear degradation).
    single = payload["replica_scaling_events_per_second"]["1"]
    largest = payload["replica_scaling_events_per_second"]["256"]
    assert largest >= 0.5 * single


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
