"""Master-equation sweep throughput — sparse structure reuse vs dense rebuild.

The paper positions the master equation as the fast, accurate mid-tier
between the detailed Monte-Carlo simulator and compact models; the ceiling of
that tier is set by how large a state window the solver can handle and how
cheaply it moves between operating points.  This benchmark measures sweep
throughput (solved bias points per second) on a coupled double dot with a
``(2 * WINDOW_HALF)^2``-state window (10 000 states at the default
``WINDOW_HALF = 50``) for

* the **sparse structure-reusing path**: one
  :class:`~repro.master.transitions.TransitionTable` serves the whole sweep —
  per point only the rate values are refreshed (one vectorized
  ``orthodox_rate_vec`` call) and one sparse LU system is solved — and
* the **dense rebuild-per-point baseline**: a fresh solver per point, dense
  generator assembly (an ``N x N`` float64 array: 0.8 GB at 10^4 states —
  the 200 000-state cap would need ~320 GB, which is why the dense path
  "cannot even allocate" the windows the sparse engine treats as routine) and
  a dense ``np.linalg.solve``,

and writes the numbers to ``BENCH_master.json`` in the repository root so the
performance trajectory is tracked across PRs, next to ``BENCH_kernel.json``.

A second, small-window row (``small_window``) times the per-point cost that
dominates ordinary use: the reference SET on its automatic 7-state window,
a 129-point gate sweep (one stacked solve) and the same points through
``solve``, with the ground-state walks per sweep and their energy
evaluations per point, the rate-kernel calls and ``np.linalg.solve`` calls
per sweep (all counted outside the timed runs; the benchmark raises when a
count exceeds its bound) and the cost of one ``orthodox_rate_vec`` call
over the window's transitions.  The same row times the master session's
``stream`` plain and under a default failure policy: each is a few stacked
solves of doubling blocks, counted (the benchmark raises above
``MAX_STACKS_PER_STREAM``) and checked bit for bit against the sweep.
A third row (``high_temperature``) sweeps
the same SET at kT = E_C, where the automatic window widens until its
boundary states hold no probability, and records the window size chosen
and the cost per point.
Run it either through pytest (``pytest benchmarks/bench_master_solver.py -s``)
or directly (``PYTHONPATH=src python benchmarks/bench_master_solver.py``).

Environment overrides (used by the CI smoke run):

``REPRO_BENCH_MASTER_WINDOW``
    Per-island half-width of the window (default 50 → 100 x 100 states).
``REPRO_BENCH_MASTER_SPARSE_POINTS`` / ``REPRO_BENCH_MASTER_DENSE_POINTS``
    Sweep-point budgets of the two paths (defaults 20 / 2; the dense path
    takes ~30 s *per point* at the default window, so it gets few points).
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.circuit import Circuit
from repro.constants import BOLTZMANN, E_CHARGE
from repro.core.rates import orthodox_rate_vec
from repro.devices import SETTransistor
from repro.devices.set_transistor import DRAIN_JUNCTION, GATE_SOURCE
from repro.engines import SweepAxes, get_engine
from repro.master import MasterEquationSolver, build_state_space, transitions
from repro.resilience import FailurePolicy

try:
    from .conftest import print_experiment_header
except ImportError:  # executed directly: python benchmarks/bench_master_solver.py
    from conftest import print_experiment_header

TEMPERATURE = 10.0
BIAS_VOLTAGE = 0.02
GATE_SPAN = 0.01
JUNCTION_CAPACITANCE = 1e-15

WINDOW_HALF = int(os.environ.get("REPRO_BENCH_MASTER_WINDOW", "50"))
SPARSE_POINTS = int(os.environ.get("REPRO_BENCH_MASTER_SPARSE_POINTS", "20"))
DENSE_POINTS = int(os.environ.get("REPRO_BENCH_MASTER_DENSE_POINTS", "2"))
REQUIRED_SPEEDUP = 5.0
REQUIRED_AGREEMENT = 1e-10

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_master.json"

#: The small-window row: reference SET, 129 gate points over two periods.
SMALL_TEMPERATURE = 2.0
SMALL_DRAIN_VOLTAGE = 5e-3
SMALL_GATE_POINTS = 129
SMALL_REPEATS = 5
RATE_CALLS = 2_000
#: The small sweep visits three windows (ground states 0, 1 and 2) and seven
#: (window, reachable set) groups: one rate-kernel call per window and one
#: LAPACK solve per group.
MAX_RATE_CALLS_PER_SWEEP = 3
MAX_SOLVE_CALLS_PER_SWEEP = 7
#: A streamed 129-point axis runs blocks of 1, 2, 4, ..., 64 and 2 points:
#: eight stacked solves.
MAX_STACKS_PER_STREAM = 8

#: The high-temperature row: the reference SET at kT = E_C.
HOT_THERMAL_RATIO = 1.0


def build_double_dot(bias_voltage: float = BIAS_VOLTAGE) -> Circuit:
    """Two islands in series between a biased lead and ground, with gates.

    Junction capacitances in the femtofarad range keep the charging energy
    small enough that, at the benchmark temperature, the whole window carries
    finite rates — the hardest (fully coupled) case for both solvers.
    """
    circuit = Circuit("bench_double_dot")
    circuit.add_island("dot_a")
    circuit.add_island("dot_b")
    circuit.add_voltage_source("VL", "lead", bias_voltage)
    circuit.add_voltage_source("VGA", "gate_a", 0.0)
    circuit.add_voltage_source("VGB", "gate_b", 0.0)
    circuit.add_junction("J_left", "lead", "dot_a", JUNCTION_CAPACITANCE, 1e6)
    circuit.add_junction("J_mid", "dot_a", "dot_b",
                         0.5 * JUNCTION_CAPACITANCE, 2e6)
    circuit.add_junction("J_right", "dot_b", "gnd",
                         1.2 * JUNCTION_CAPACITANCE, 1.5e6)
    circuit.add_capacitor("C_gate_a", "gate_a", "dot_a",
                          0.4 * JUNCTION_CAPACITANCE)
    circuit.add_capacitor("C_gate_b", "gate_b", "dot_b",
                          0.3 * JUNCTION_CAPACITANCE)
    return circuit


def benchmark_window():
    half = WINDOW_HALF
    return build_state_space([(-half + 1, half), (-half + 1, half)])


def gate_values(points: int) -> np.ndarray:
    return np.linspace(0.0, GATE_SPAN, points)


def measure_sparse(points: int) -> tuple:
    """End-to-end sparse sweep (table build included), points per second."""
    space = benchmark_window()
    solver = MasterEquationSolver(build_double_dot(), TEMPERATURE,
                                  state_space=space, method="sparse")
    values = gate_values(points)
    start = time.perf_counter()
    _, currents = solver.sweep_source("VGA", values, "J_left")
    elapsed = time.perf_counter() - start
    return points / elapsed, currents


def measure_dense(points: int) -> tuple:
    """Dense rebuild-per-point baseline: fresh solver + dense solve per point.

    The dense path visits a prefix of the sparse sweep's grid so the two
    current traces are directly comparable; its budget is therefore capped at
    the sparse point count.
    """
    points = min(points, SPARSE_POINTS)
    values = gate_values(SPARSE_POINTS)[:points]
    currents = np.empty(points)
    start = time.perf_counter()
    for position, value in enumerate(values):
        circuit = build_double_dot()
        circuit.set_source_voltage("VGA", float(value))
        solver = MasterEquationSolver(circuit, TEMPERATURE,
                                      state_space=benchmark_window(),
                                      method="dense")
        currents[position] = solver.current("J_left")
    elapsed = time.perf_counter() - start
    return points / elapsed, currents


def best_time(function, repeats: int = SMALL_REPEATS) -> float:
    """Shortest wall time of ``repeats`` calls of ``function``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def replayed_walk_steps(model, limit: int, voltages: np.ndarray,
                        stop: np.ndarray) -> int:
    """Energy evaluations of the greedy ground-state walk under ``limit``.

    Replays the walk of :meth:`~repro.core.energy.EnergyModel.ground_states`
    at ``voltages``, one public
    :meth:`~repro.core.energy.EnergyModel.event_delta_f` call per step, and
    checks that it stops at ``stop``, where the walk stopped.
    """
    offsets = model.system.offset_charge_vector()
    electrons = model.zero_state()
    budget = (2 * limit + 1) ** max(1, model.island_count)
    steps = budget
    for step in range(budget):
        deltas = model.event_delta_f(electrons, voltages, offsets)
        best = int(deltas.argmin())
        candidate = electrons + model.table.delta_n[best]
        if deltas[best] >= 0.0 or np.abs(candidate).max(initial=0) > limit:
            steps = step + 1
            break
        electrons = candidate
    if not np.array_equal(electrons, stop):
        raise AssertionError("replayed walk stops elsewhere")
    return steps


def count_walks(model) -> dict:
    """Count the ground-state walks of ``model`` and their energy evaluations.

    Wraps the model's :meth:`~repro.core.energy.EnergyModel.ground_states`
    (one call is one walk over a voltage stack, under its largest limit)
    for the duration of a measurement; the counts land in the returned dict,
    the energy evaluations replayed point by point.
    """
    counts = {"walks": 0, "steps": 0}
    walk = model.ground_states

    def counted(limits, voltages=None, offsets=None):
        stops = walk(limits, voltages, offsets)
        top = max(range(len(limits)), key=lambda index: limits[index])
        counts["walks"] += 1
        stack = np.atleast_2d(model.system.source_voltage_vector()
                              if voltages is None else voltages)
        counts["steps"] += sum(
            replayed_walk_steps(model, limits[top], row, stop)
            for row, stop in zip(stack, np.atleast_2d(stops[top])))
        return stops

    model.ground_states = counted
    return counts


@contextmanager
def counting(module, name: str):
    """Count the calls of ``module.name`` inside the ``with`` block."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def measure_small_window() -> dict:
    """Per-point cost of the reference SET on its automatic window."""
    device = SETTransistor()
    circuit = device.build_circuit(drain_voltage=SMALL_DRAIN_VOLTAGE)
    solver = MasterEquationSolver(circuit, SMALL_TEMPERATURE)
    gates = np.linspace(0.0, 2.0 * device.gate_period, SMALL_GATE_POINTS)

    def solve_points():
        currents = np.empty(gates.size)
        for position, gate in enumerate(gates):
            circuit.set_source_voltage(GATE_SOURCE, float(gate))
            currents[position] = solver.solve().current(DRAIN_JUNCTION)
        return currents

    model = solver.builder.model
    counts = count_walks(model)
    with counting(transitions, "orthodox_rate_vec") as rate_calls, \
            counting(np.linalg, "solve") as solve_calls:
        _, swept = solver.sweep_source(GATE_SOURCE, gates, DRAIN_JUNCTION)
    del model.ground_states
    rate_calls_per_sweep = len(rate_calls)
    solve_calls_per_sweep = len(solve_calls)
    if rate_calls_per_sweep > MAX_RATE_CALLS_PER_SWEEP:
        raise AssertionError(f"{rate_calls_per_sweep} rate-kernel calls per "
                             f"sweep, expected at most "
                             f"{MAX_RATE_CALLS_PER_SWEEP}")
    if solve_calls_per_sweep > MAX_SOLVE_CALLS_PER_SWEEP:
        raise AssertionError(f"{solve_calls_per_sweep} linear solves per "
                             f"sweep, expected at most "
                             f"{MAX_SOLVE_CALLS_PER_SWEEP}")
    if not np.array_equal(swept, solve_points()):
        raise AssertionError("sweep and per-point solves differ")
    sweep_s = best_time(lambda: solver.sweep_source(GATE_SOURCE, gates,
                                                    DRAIN_JUNCTION))
    solve_s = best_time(solve_points)

    stream = measure_streams(device, gates)

    table = solver.builder._cached_table
    _, delta = table.rates()
    rate_s = best_time(lambda: [orthodox_rate_vec(delta, table.resistance,
                                                  SMALL_TEMPERATURE)
                                for _ in range(RATE_CALLS)])
    return {
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 MOhm)",
        "temperature_K": SMALL_TEMPERATURE,
        "drain_voltage_V": SMALL_DRAIN_VOLTAGE,
        "state_count": table.space.size,
        "pair_count": table.pair_count,
        "gate_points": SMALL_GATE_POINTS,
        "sweep_points_per_second": round(SMALL_GATE_POINTS / sweep_s, 1),
        "solve_points_per_second": round(SMALL_GATE_POINTS / solve_s, 1),
        "walks_per_sweep": counts["walks"],
        "walk_steps_per_point": round(counts["steps"] / SMALL_GATE_POINTS, 3),
        "rate_calls_per_sweep": rate_calls_per_sweep,
        "solve_calls_per_sweep": solve_calls_per_sweep,
        "rate_vec_us_per_call": round(rate_s / RATE_CALLS * 1e6, 2),
        **stream,
    }


def measure_streams(device, gates) -> dict:
    """Points/s of a bound master session's plain and policed ``stream``.

    Both must equal the session's sweep bit for bit and run at most
    ``MAX_STACKS_PER_STREAM`` stacked solves (counted on
    ``MasterEquationSolver._solve_stack`` outside the timed runs).
    """
    session = get_engine("master").bind(device, temperature=SMALL_TEMPERATURE)
    axes = SweepAxes(gates, SMALL_DRAIN_VOLTAGE)
    swept = session.sweep(axes).currents
    styles = {"stream": {}, "policed_stream": {"policy": FailurePolicy()}}

    def streamed(options):
        return np.array([observed.current for _, observed
                         in session.stream(axes, **options)])

    row = {}
    for name, options in styles.items():
        with counting(MasterEquationSolver, "_solve_stack") as stacks:
            currents = streamed(options)
        if len(stacks) > MAX_STACKS_PER_STREAM:
            raise AssertionError(f"{len(stacks)} stacked solves per {name}, "
                                 f"expected at most {MAX_STACKS_PER_STREAM}")
        if not np.array_equal(currents, swept):
            raise AssertionError(f"{name} and sweep differ")
        seconds = best_time(lambda options=options: streamed(options))
        row[f"{name}_points_per_second"] = round(gates.size / seconds, 1)
        row[f"stacked_solves_per_{name}"] = len(stacks)
    return row


def measure_high_temperature() -> dict:
    """The reference SET at kT = E_C: window size chosen and cost per point."""
    device = SETTransistor()
    temperature = HOT_THERMAL_RATIO * E_CHARGE ** 2 \
        / (2.0 * device.total_capacitance * BOLTZMANN)
    circuit = device.build_circuit(drain_voltage=SMALL_DRAIN_VOLTAGE)
    solver = MasterEquationSolver(circuit, temperature)
    gates = np.linspace(0.0, 2.0 * device.gate_period, SMALL_GATE_POINTS)
    sweep_s = best_time(lambda: solver.sweep_source(GATE_SOURCE, gates,
                                                    DRAIN_JUNCTION))
    sizes = set()
    for gate in gates[::16]:
        circuit.set_source_voltage(GATE_SOURCE, float(gate))
        sizes.add(solver.solve().state_count)
    return {
        "kT_over_EC": HOT_THERMAL_RATIO,
        "temperature_K": round(temperature, 3),
        "drain_voltage_V": SMALL_DRAIN_VOLTAGE,
        "gate_points": SMALL_GATE_POINTS,
        "state_counts": sorted(sizes),
        "sweep_us_per_point": round(sweep_s / SMALL_GATE_POINTS * 1e6, 2),
    }


def run_benchmark() -> dict:
    state_count = benchmark_window().size
    sparse_pps, sparse_currents = measure_sparse(SPARSE_POINTS)
    dense_pps, dense_currents = measure_dense(min(DENSE_POINTS, SPARSE_POINTS))
    shared = min(len(sparse_currents), len(dense_currents))
    scale = np.abs(dense_currents[:shared]).max()
    agreement = float(np.abs(sparse_currents[:shared]
                             - dense_currents[:shared]).max() / scale)
    payload = {
        "benchmark": "master_sweep_throughput",
        "device": "coupled double dot (1 fF junctions, series bias)",
        "temperature_K": TEMPERATURE,
        "bias_voltage_V": BIAS_VOLTAGE,
        "state_count": state_count,
        "sparse_points_per_second": round(sparse_pps, 3),
        "dense_points_per_second": round(dense_pps, 5),
        "speedup": round(sparse_pps / dense_pps, 1),
        "sparse_point_budget": SPARSE_POINTS,
        "dense_point_budget": len(dense_currents),
        "relative_current_agreement": agreement,
        "small_window": measure_small_window(),
        "high_temperature": measure_high_temperature(),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_master_sweep_throughput():
    print_experiment_header(
        "MASTER", "sparse structure-reusing sweep >= 5x dense rebuild-per-point")
    payload = run_benchmark()
    print(f"window          : {payload['state_count']:>12,} states")
    print(f"sparse path     : {payload['sparse_points_per_second']:>12,.2f} points/s")
    print(f"dense baseline  : {payload['dense_points_per_second']:>12,.5f} points/s")
    print(f"speedup         : {payload['speedup']:>12,.1f}x")
    print(f"agreement       : {payload['relative_current_agreement']:>12.2e} (relative)")
    small = payload["small_window"]
    print(f"small window    : {small['state_count']:>12,} states, "
          f"{small['pair_count']} transitions")
    print(f"  sweep         : {small['sweep_points_per_second']:>12,.1f} points/s")
    print(f"  solve         : {small['solve_points_per_second']:>12,.1f} points/s")
    print(f"  walks         : {small['walks_per_sweep']:>12d} per sweep")
    print(f"  walk steps    : {small['walk_steps_per_point']:>12.3f} per point")
    print(f"  rate calls    : {small['rate_calls_per_sweep']:>12d} per sweep")
    print(f"  linear solves : {small['solve_calls_per_sweep']:>12d} per sweep")
    print(f"  rate kernel   : {small['rate_vec_us_per_call']:>12.2f} us per call")
    print(f"  stream        : "
          f"{small['stream_points_per_second']:>12,.1f} points/s"
          f" ({small['stacked_solves_per_stream']} stacked solves)")
    print(f"  policed stream: "
          f"{small['policed_stream_points_per_second']:>12,.1f} points/s"
          f" ({small['stacked_solves_per_policed_stream']} stacked solves)")
    hot = payload["high_temperature"]
    print(f"kT = E_C        : {hot['state_counts']} states, "
          f"{hot['sweep_us_per_point']:.1f} us per swept point")
    print(f"written to      : {OUTPUT_PATH}")
    assert payload["speedup"] >= REQUIRED_SPEEDUP
    assert payload["relative_current_agreement"] <= REQUIRED_AGREEMENT
    assert small["walks_per_sweep"] == 1


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
