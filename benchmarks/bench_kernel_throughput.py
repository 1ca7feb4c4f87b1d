"""Kernel throughput — the simulator's run path versus the scalar reference.

The ROADMAP's north star asks the detailed Monte-Carlo engine to run "as fast
as the hardware allows".  This benchmark measures raw kinetic Monte-Carlo
throughput (executed events per second) on the reference SET transistor for

* the **fast path**: a plain ``MonteCarloSimulator.run``, which is the
  advance loop of :mod:`repro.montecarlo.jit` on the active backend (native
  where a compiler or numba is available, else interpreted) over
  precomputed event tables, incremental electrostatics and memoised
  per-configuration rate tables, and
* the **reference path**: the original per-candidate scalar implementation,
  stepped event by event, kept as the correctness baseline in the test
  oracle ``tests/montecarlo/reference_kernel.py``,

and writes the numbers to ``BENCH_kernel.json`` in the repository root so the
performance trajectory is tracked across PRs.  Run it either through pytest
(``pytest benchmarks/bench_kernel_throughput.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_kernel_throughput.py``); both
raise when the fast path falls below ``REQUIRED_SPEEDUP`` times the
reference, as does a run whose event count misses its budget.
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.montecarlo import MonteCarloSimulator

try:
    from .conftest import print_experiment_header, standard_transistor
except ImportError:  # executed directly: python benchmarks/bench_kernel_throughput.py
    from conftest import print_experiment_header, standard_transistor
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.montecarlo.reference_kernel import reference_simulator

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04
WARMUP_EVENTS = 1_000
# Event budgets; the CI smoke run shrinks them through the environment.
FAST_EVENTS = int(os.environ.get("REPRO_BENCH_FAST_EVENTS", "200000"))
REFERENCE_EVENTS = int(os.environ.get("REPRO_BENCH_REFERENCE_EVENTS", "20000"))
REQUIRED_SPEEDUP = 5.0

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def measure_events_per_second(reference: bool, events: int) -> float:
    """Steady-state events/second of one kernel flavour on the reference SET."""
    circuit = standard_transistor().build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                                  gate_voltage=GATE_VOLTAGE)
    build = reference_simulator if reference else MonteCarloSimulator
    simulator = build(circuit, temperature=TEMPERATURE, seed=3)
    state = simulator.new_state()
    simulator.run(max_events=WARMUP_EVENTS, state=state)
    start = time.perf_counter()
    result = simulator.run(max_events=events, state=state)
    elapsed = time.perf_counter() - start
    assert result.event_count == events
    return events / elapsed


def run_benchmark() -> dict:
    fast = measure_events_per_second(reference=False, events=FAST_EVENTS)
    reference = measure_events_per_second(reference=True,
                                          events=REFERENCE_EVENTS)
    payload = {
        "benchmark": "kernel_throughput",
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 Mohm)",
        "temperature_K": TEMPERATURE,
        "drain_voltage_V": DRAIN_VOLTAGE,
        "gate_voltage_V": GATE_VOLTAGE,
        "fast_events_per_second": round(fast, 1),
        "reference_events_per_second": round(reference, 1),
        "speedup": round(fast / reference, 2),
        "fast_event_budget": FAST_EVENTS,
        "reference_event_budget": REFERENCE_EVENTS,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_kernel_throughput():
    print_experiment_header(
        "KERNEL", "simulator run path >= 5x scalar reference on the SET")
    payload = run_benchmark()
    print(f"fast path      : {payload['fast_events_per_second']:>12,.0f} events/s")
    print(f"reference path : {payload['reference_events_per_second']:>12,.0f} events/s")
    print(f"speedup        : {payload['speedup']:>12.2f}x")
    print(f"written to     : {OUTPUT_PATH}")
    check(payload)


def check(payload: dict) -> None:
    """Raise unless ``payload`` passes the benchmark's speedup gate."""
    if payload["speedup"] < REQUIRED_SPEEDUP:
        raise AssertionError(f"gates failed: speedup {payload['speedup']} "
                             f"< {REQUIRED_SPEEDUP}")


if __name__ == "__main__":
    payload = run_benchmark()
    print(json.dumps(payload, indent=2))
    check(payload)
