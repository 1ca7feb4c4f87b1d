"""Protocol-layer overhead — ``repro.engines`` sessions vs direct engine calls.

The unified engine API (``get_engine(name).bind(...).sweep(...)``) must be a
zero-cost abstraction: the registry lookup, capability objects, session
construction and the common result model may not tax the underlying engine
fast paths.  This benchmark times the E1/E7-style reference workload — an
Id-Vg sweep of the standard SET — through both call styles for the three
engine families:

* ``analytic``: compact-model twin + one broadcast ``drain_current_map``
  versus a bound :class:`~repro.engines.adapters.AnalyticSession`;
* ``master``: circuit + :class:`~repro.master.MasterEquationSolver` +
  structure-reusing ``sweep_source`` versus a bound ``MasterSession``;
* ``montecarlo``: circuit + seeded
  :class:`~repro.montecarlo.MonteCarloSimulator` + warm-started
  ``sweep_source`` versus a bound ``MonteCarloSession`` (identical seeds
  and the same advance loop, so both sides do event-for-event the same
  stochastic work).

Both sides include their setup (model/solver/simulator construction versus
``bind``), take the best of ``REPEATS`` interleaved runs, and must produce
*identical* current arrays — the protocol layer adds dispatch, not
semantics.  Because end-to-end wall clock fluctuates by a few percent on a
loaded machine, the asserted overhead bound uses a direct measurement of
the layer itself: the full registry-lookup + ``bind`` + ``SweepAxes`` +
``SweepResult`` round trip through a null engine (zero physics), averaged
over a batch of ``LAYER_BATCH`` iterations, divided by each engine's
measured sweep time.  The layer batch is timed in the same interleaved
best-of-``REPEATS`` rounds as the engine's two call styles, so host load
reaches the numerator and the denominator alike.  That ratio is the
*worst-case* protocol tax (the layer cost is constant per sweep) and is
required to stay within ``REQUIRED_OVERHEAD`` (2%); the interleaved
end-to-end deltas are recorded alongside as corroboration.  Results go to
``BENCH_dispatch.json``.

Environment overrides (used by the CI smoke run):

``REPRO_BENCH_DISPATCH_POINTS``
    Sweep points (default 129, the E7 grid).
``REPRO_BENCH_DISPATCH_EVENTS`` / ``REPRO_BENCH_DISPATCH_WARMUP``
    Monte-Carlo per-point budgets (defaults 2000 / 200, the E7 budget).
``REPRO_BENCH_DISPATCH_REPEATS``
    Timing repetitions per call style (default 5, best-of).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engines import (
    CostModel,
    Engine,
    EngineCapabilities,
    Observables,
    Session,
    SweepAxes,
    SweepResult,
    analytic_model_for,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.master import MasterEquationSolver
from repro.montecarlo import MonteCarloSimulator

try:
    from .conftest import print_experiment_header, standard_transistor
except ImportError:  # executed directly: python benchmarks/bench_engine_dispatch.py
    from conftest import print_experiment_header, standard_transistor

TEMPERATURE = 2.0
DRAIN_VOLTAGE = 5e-3
SEED = 4

POINTS = int(os.environ.get("REPRO_BENCH_DISPATCH_POINTS", "129"))
MAX_EVENTS = int(os.environ.get("REPRO_BENCH_DISPATCH_EVENTS", "2000"))
WARMUP_EVENTS = int(os.environ.get("REPRO_BENCH_DISPATCH_WARMUP", "200"))
REPEATS = int(os.environ.get("REPRO_BENCH_DISPATCH_REPEATS", "5"))
REQUIRED_OVERHEAD = 0.02
#: Null-engine round trips per timed layer batch: one takes a few
#: microseconds, far below the noise of a single timed call.
LAYER_BATCH = 400

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"


def gate_axis(device) -> np.ndarray:
    """The E7 gate grid: two oscillation periods of the reference SET."""
    return np.linspace(0.0, 2.0 * device.gate_period, POINTS)


def direct_analytic(device, gates):
    """Compact-model construction plus one broadcast map (the old call site)."""
    model = analytic_model_for(device, TEMPERATURE)
    return np.asarray(model.drain_current_map([DRAIN_VOLTAGE], gates))[0]


def direct_master(device, gates):
    """Fresh solver plus structure-reusing sweep (the old call site)."""
    circuit = device.build_circuit(drain_voltage=DRAIN_VOLTAGE)
    solver = MasterEquationSolver(circuit, temperature=TEMPERATURE)
    _, currents = solver.sweep_source("VG", gates, "J_drain")
    return currents


def direct_montecarlo(device, gates):
    """Fresh seeded simulator plus warm-started sweep (the old call site)."""
    circuit = device.build_circuit()
    circuit.set_source_voltage("VD", DRAIN_VOLTAGE)
    simulator = MonteCarloSimulator(circuit, temperature=TEMPERATURE,
                                    seed=SEED)
    _, currents, _ = simulator.sweep_source(
        "VG", gates, "J_drain", max_events=MAX_EVENTS,
        warmup_events=WARMUP_EVENTS, warm_start=True)
    return currents


def protocol_sweep(engine_name, device, gates):
    """The same workload through the unified registry/bind/sweep protocol."""
    session = get_engine(engine_name).bind(
        device, temperature=TEMPERATURE, seed=SEED,
        max_events=MAX_EVENTS, warmup_events=WARMUP_EVENTS)
    return session.sweep(SweepAxes(gates, DRAIN_VOLTAGE)).currents


class _NullSession(Session):
    """A session whose physics is free: measures pure protocol cost."""

    def solve(self, bias):
        """Zero-cost observables."""
        return Observables(current=0.0, engine=self.engine_name)

    def _sweep(self, axes, workers):
        """Zero-cost sweep result of the right shape."""
        return SweepResult(axes=axes, currents=np.zeros(len(axes)),
                           stderrs=None, engine=self.engine_name)


class _NullEngine(Engine):
    """The null backend behind the layer-cost measurement."""

    name = "_bench_null"

    def capabilities(self):
        """Placeholder capabilities (never selected by heuristics)."""
        return EngineCapabilities(
            name=self.name, exactness="exact-sequential", stochastic=False,
            supports_ensemble=False,
            cost=CostModel(setup_s=1e-9, per_point_s=1e-9),
            description="benchmark null engine")

    def bind(self, device, *, temperature, seed=None, background_charge=None,
             max_events=20_000, warmup_events=1_000, replicas=0):
        """Bind a free session."""
        return _NullSession(self.name, device, temperature, background_charge)


def protocol_layer_batch(device, gates):
    """``LAYER_BATCH`` protocol round trips through the null engine.

    Each is the complete dispatch round trip — registry lookup, ``bind``,
    ``SweepAxes`` construction, ``sweep``, ``SweepResult`` validation and
    ``currents`` access — with zero physics (the caller registers the null
    engine), so a batch's time over ``LAYER_BATCH`` is exactly what the
    unified API adds to one sweep of any real engine.
    """
    for _ in range(LAYER_BATCH):
        get_engine(_NullEngine.name).bind(
            device, temperature=TEMPERATURE).sweep(
            SweepAxes(gates, DRAIN_VOLTAGE)).currents


def timed(callable_):
    """One wall-clock measurement, returning (seconds, result)."""
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def best_of_interleaved(*callables, repeats=None):
    """Best-of-N result of each callable, interleaved and order-alternated.

    Interleaving the call styles (and reversing their order every other
    repeat) cancels machine drift — frequency scaling, cache warmth,
    background load — that would otherwise dwarf the percent-scale effect
    being measured.  Returns one ``(best_s, result)`` pair per callable:
    the shortest wall time over the repeats and the last result.
    """
    repeats = REPEATS if repeats is None else repeats
    best = [float("inf")] * len(callables)
    results = [None] * len(callables)
    for repeat in range(repeats):
        order = list(range(len(callables)))
        if repeat % 2:
            order.reverse()
        for position in order:
            elapsed, results[position] = timed(callables[position])
            best[position] = min(best[position], elapsed)
    return list(zip(best, results))


def run_benchmark() -> dict:
    """Time every engine family both ways and write ``BENCH_dispatch.json``."""
    device = standard_transistor()
    gates = gate_axis(device)
    cases = {
        "analytic": lambda: direct_analytic(device, gates),
        "master": lambda: direct_master(device, gates),
        "montecarlo": lambda: direct_montecarlo(device, gates),
    }
    register_engine(_NullEngine())
    try:
        protocol_layer_batch(device, gates)     # untimed warm-up
        engines = {}
        layer_best, worst = float("inf"), 0.0
        for name, direct in cases.items():
            # One untimed warm-up per style so first-call import costs do
            # not pollute the microsecond-scale analytic case.
            direct()
            protocol_sweep(name, device, gates)
            (direct_s, direct_currents), (protocol_s, protocol_currents), \
                (batch_s, _) = best_of_interleaved(
                    direct,
                    lambda name=name: protocol_sweep(name, device, gates),
                    lambda: protocol_layer_batch(device, gates))
            layer_s = batch_s / LAYER_BATCH
            layer_best = min(layer_best, layer_s)
            identical = bool(np.array_equal(direct_currents,
                                            protocol_currents))
            end_to_end = (protocol_s - direct_s) / direct_s
            layer_fraction = layer_s / direct_s
            worst = max(worst, layer_fraction)
            engines[name] = {
                "direct_s": round(direct_s, 6),
                "protocol_s": round(protocol_s, 6),
                "layer_s": round(layer_s, 8),
                "end_to_end_delta_fraction": round(end_to_end, 4),
                "layer_overhead_fraction": round(layer_fraction, 6),
                "currents_identical": identical,
            }
    finally:
        unregister_engine(_NullEngine.name)
    payload = {
        "benchmark": "engine_dispatch_overhead",
        "workload": f"Id-Vg sweep, {POINTS} points, reference SET "
                    f"(E1/E7 grid), T = {TEMPERATURE} K",
        "montecarlo_budget": {"max_events": MAX_EVENTS,
                              "warmup_events": WARMUP_EVENTS},
        "repeats": REPEATS,
        "layer_batch": LAYER_BATCH,
        "protocol_layer_s_per_sweep": round(layer_best, 8),
        "engines": engines,
        "worst_layer_overhead_fraction": round(worst, 6),
        "within_2pct": bool(worst <= REQUIRED_OVERHEAD),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_engine_dispatch_overhead():
    """The protocol layer must stay within 2% of direct engine calls."""
    print_experiment_header(
        "DISPATCH", "repro.engines protocol overhead <= 2% vs direct calls")
    payload = run_benchmark()
    print(f"protocol layer : {payload['protocol_layer_s_per_sweep'] * 1e6:.1f}"
          " us per dispatched sweep")
    for name, numbers in payload["engines"].items():
        print(f"{name:<11}: direct {numbers['direct_s'] * 1e3:>9.3f} ms   "
              f"protocol {numbers['protocol_s'] * 1e3:>9.3f} ms   "
              f"layer tax {numbers['layer_overhead_fraction'] * 100:>7.3f}%   "
              f"end-to-end {numbers['end_to_end_delta_fraction'] * 100:>+6.2f}%"
              f"   identical={numbers['currents_identical']}")
    print(f"worst layer tax: "
          f"{payload['worst_layer_overhead_fraction'] * 100:.3f}%")
    print(f"written to     : {OUTPUT_PATH}")
    for numbers in payload["engines"].values():
        assert numbers["currents_identical"]
    assert payload["worst_layer_overhead_fraction"] <= REQUIRED_OVERHEAD


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
