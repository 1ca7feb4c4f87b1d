"""The stacked master-equation solve against the per-point oracle.

Every sweep is one stacked solve (one walk, one rate call per window, one
``np.linalg.solve`` per window and reachable set), and :meth:`solve` is the
same routine on one point.  These properties hold it to the per-point loop
of :mod:`.point_oracle` with ``np.array_equal``: random SETs from ``T = 0``
through reducible chains at 0.02 K up to temperatures where no automatic
window widens, explicit windows, dense double-dot windows, forced-sparse
windows, gate-drain maps and ``workers=2`` sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.core import rates as rate_module
from repro.devices import SETTransistor
from repro.devices.set_transistor import (DRAIN_JUNCTION, DRAIN_SOURCE,
                                          GATE_SOURCE)
from repro.master import MasterEquationSolver, build_state_space
from repro.master import steadystate, transitions

from ..conftest import build_double_dot_circuit
from . import point_oracle

EXAMPLES = settings(max_examples=15, deadline=None)

devices = st.builds(
    SETTransistor,
    junction_capacitance=st.floats(min_value=5e-19, max_value=3e-18),
    gate_capacitance=st.floats(min_value=5e-19, max_value=4e-18),
    junction_resistance=st.floats(min_value=1e5, max_value=1e7))
#: Temperature as a fraction of the charging energy e^2 / 2 C_sigma; at
#: 0.08 the boundary mass of a +-3 window is far below the widening
#: tolerance.
thermal_ratios = st.one_of(st.just(0.0), st.floats(min_value=1e-3,
                                                   max_value=0.08))
#: Drain bias in units of the blockade voltage e / C_sigma: at most the
#: states next to the ground state carry current, so no window widens.
drains = st.floats(min_value=-1.0, max_value=1.0)


def charging_temperature(device, ratio):
    """The temperature at which kT equals ``ratio`` charging energies."""
    return ratio * E_CHARGE ** 2 / (2.0 * device.total_capacitance
                                    * BOLTZMANN)


def set_solver(device, temperature, drain, **options):
    circuit = device.build_circuit(
        drain_voltage=drain * E_CHARGE / device.total_capacitance)
    return MasterEquationSolver(circuit, temperature=temperature, **options)


def gates(device, count=21, periods=2.0):
    return np.linspace(-0.3, periods - 0.3, count) * device.gate_period


def window_sizes(solver):
    """Record the size of every automatic window the solver serves."""
    sizes = []
    serve = solver.builder.window_table

    def recording(bounds):
        table = serve(bounds)
        sizes.append(table.space.size)
        return table

    solver.builder.window_table = recording
    return sizes


def assert_sweep_matches(solver, source, values, junction):
    expected = point_oracle.sweep_source(solver, source, values, junction)
    _, currents = solver.sweep_source(source, values, junction)
    assert np.array_equal(currents, expected)


def assert_solves_match(solver, source, values):
    for value in values:
        solver.circuit.set_source_voltage(source, float(value))
        table, rates, _, probabilities = point_oracle.solve_point(solver)
        solution = solver.solve()
        assert np.array_equal(solution.probabilities, probabilities)
        currents = point_oracle.point_currents(table, probabilities, rates)
        assert np.array_equal(
            [solution.current(name) for name in table.junction_names],
            currents)
        assert solver.current(table.junction_names[0]) == currents[0]


class TestSets:
    @EXAMPLES
    @given(device=devices, ratio=thermal_ratios, drain=drains)
    def test_sweep_and_solve(self, device, ratio, drain):
        temperature = charging_temperature(device, ratio)
        solver = set_solver(device, temperature, drain)
        sizes = window_sizes(solver)
        assert_sweep_matches(solver, GATE_SOURCE, gates(device),
                             DRAIN_JUNCTION)
        assert_solves_match(solver, GATE_SOURCE, gates(device, 5))
        assert set(sizes) == {7}, "a window widened"

    @EXAMPLES
    @given(device=devices, drain=drains)
    def test_reducible_chains_at_20_mk(self, device, drain):
        solver = set_solver(device, 0.02, drain)
        sizes = window_sizes(solver)
        assert_sweep_matches(solver, GATE_SOURCE, gates(device, 31, 4.0),
                             DRAIN_JUNCTION)
        assert_solves_match(solver, GATE_SOURCE, gates(device, 5, 4.0))
        assert set(sizes) == {7}, "a window widened"

    @EXAMPLES
    @given(device=devices, ratio=thermal_ratios, drain=drains,
           low=st.integers(min_value=-3, max_value=0),
           width=st.integers(min_value=0, max_value=5))
    def test_explicit_windows(self, device, ratio, drain, low, width):
        space = build_state_space([(low, low + width)])
        solver = set_solver(device, charging_temperature(device, ratio),
                            drain, state_space=space)
        assert_sweep_matches(solver, GATE_SOURCE, gates(device, 21, 3.0),
                             DRAIN_JUNCTION)
        assert_solves_match(solver, GATE_SOURCE, gates(device, 4, 3.0))

    @EXAMPLES
    @given(device=devices, ratio=thermal_ratios)
    def test_gate_drain_map(self, device, ratio):
        solver = set_solver(device, charging_temperature(device, ratio), 0.0)
        gate_values = gates(device, 7)
        drain_values = np.linspace(-1.0, 1.0, 4) * E_CHARGE \
            / device.total_capacitance
        expected = point_oracle.sweep_gate_drain(
            solver, GATE_SOURCE, DRAIN_SOURCE, gate_values, drain_values,
            DRAIN_JUNCTION)
        _, _, currents = solver.sweep_gate_drain(
            GATE_SOURCE, DRAIN_SOURCE, gate_values, drain_values,
            DRAIN_JUNCTION)
        assert np.array_equal(currents, expected)

    @settings(max_examples=3, deadline=None)
    @given(device=devices, ratio=thermal_ratios, drain=drains)
    def test_workers(self, device, ratio, drain):
        solver = set_solver(device, charging_temperature(device, ratio),
                            drain)
        values = gates(device, 9)
        expected = point_oracle.sweep_source(solver, GATE_SOURCE, values,
                                             DRAIN_JUNCTION)
        _, currents = solver.sweep_source(GATE_SOURCE, values,
                                          DRAIN_JUNCTION, workers=2)
        assert np.array_equal(currents, expected)


class TestDoubleDots:
    #: Lead biases up to 0.1 V keep the charge inside a +-2 window.
    biases = st.floats(min_value=-0.1, max_value=0.1)

    @EXAMPLES
    @given(temperature=st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0]),
           bias=biases, extra=st.sampled_from([2, 3]))
    def test_dense_windows(self, temperature, bias, extra):
        solver = MasterEquationSolver(
            build_double_dot_circuit(bias_voltage=bias), temperature,
            extra_electrons=extra, method="dense")
        sizes = window_sizes(solver)
        values = np.linspace(-0.3, 0.3, 13)
        assert_sweep_matches(solver, "VGA", values, "J_left")
        assert_solves_match(solver, "VGB", values[::4])
        assert set(sizes) == {(2 * extra + 1) ** 2}, "a window widened"

    @settings(max_examples=5, deadline=None)
    @given(temperature=st.sampled_from([0.05, 1.0]), bias=biases)
    def test_forced_sparse_windows(self, temperature, bias):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steadystate, "DENSE_STATE_CUTOFF", 0)
            solver = MasterEquationSolver(
                build_double_dot_circuit(bias_voltage=bias), temperature,
                extra_electrons=2)
            values = np.linspace(-0.3, 0.3, 7)
            assert_sweep_matches(solver, "VGA", values, "J_right")
            assert_solves_match(solver, "VGB", values[::3])


class TestCallCounts:
    """The reference SET sweep: one rate call per window, one LAPACK
    solve per window and reachable set."""

    @pytest.fixture
    def solver(self):
        device = SETTransistor()
        return device, MasterEquationSolver(
            device.build_circuit(drain_voltage=5e-3), temperature=2.0)

    def test_one_rate_call_per_window(self, solver, monkeypatch):
        device, solver = solver
        values = np.linspace(0.0, 2.0 * device.gate_period, 129)
        sizes = window_sizes(solver)
        kernel = transitions.orthodox_rate_vec
        calls = []
        monkeypatch.setattr(transitions, "orthodox_rate_vec",
                            lambda *args: calls.append(1) or kernel(*args))
        solver.sweep_source(GATE_SOURCE, values, DRAIN_JUNCTION)
        assert len(calls) == len(sizes) == 3
        assert rate_module.orthodox_rate_vec is kernel

    def test_one_solve_per_window_and_reachable_set(self, solver,
                                                    monkeypatch):
        device, solver = solver
        values = np.linspace(0.0, 2.0 * device.gate_period, 129)
        groups = set()
        for value in values:
            solver.circuit.set_source_voltage(GATE_SOURCE, float(value))
            table, rates, _, start = point_oracle.prepare_point(
                solver, start_at_centre=True)
            adjacency = point_oracle.point_generator(table, rates) > 0.0
            np.fill_diagonal(adjacency, False)
            forward, backward = steadystate._reach_stack(
                adjacency[np.newaxis], [start])
            assert backward[forward].all(), "a reducible point"
            groups.add((table.box[0], forward.tobytes()))
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or solve(*args))
        solver.sweep_source(GATE_SOURCE, values, DRAIN_JUNCTION)
        assert len(calls) == len(groups)


def test_a_singular_block_sends_its_stack_to_the_one_point_solve():
    rng = np.random.default_rng(3)
    blocks = rng.uniform(0.5, 2.0, size=(3, 4, 4))
    blocks[1] = 0.0                     # no transitions: singular
    for block in blocks:
        np.fill_diagonal(block, 0.0)
        np.fill_diagonal(block, -block.sum(axis=0))
    expected = [steadystate._irreducible_stationary(block)
                for block in blocks]
    assert np.array_equal(steadystate._irreducible_stack(blocks), expected)
    assert np.array_equal(steadystate._irreducible_stack(blocks[[0, 2]]),
                          expected[::2])


@EXAMPLES
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       count=st.integers(min_value=1, max_value=6),
       size=st.integers(min_value=1, max_value=30),
       density=st.floats(min_value=0.0, max_value=0.3))
def test_stacked_reach_matches_one_breadth_first_search_per_point(
        seed, count, size, density):
    rng = np.random.default_rng(seed)
    adjacency = rng.random((count, size, size)) < density
    initial = rng.integers(0, size, count).tolist()
    forward, backward = steadystate._reach_stack(adjacency, initial)
    for point, start in enumerate(initial):
        assert np.array_equal(
            forward[point], steadystate._reach(adjacency[point], start))
        assert np.array_equal(
            backward[point], steadystate._reach(adjacency[point].T, start))
