"""Tests for the sparse master-equation engine.

The dense path (``method="dense"``) is the correctness baseline; these tests
pin the sparse path to it — on irreducible windows, on reducible chains with
absorbing-class weighting, and in the zero-rate underflow regime near T = 0 —
and exercise the structure-reusing sweep drivers built on top.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import CircuitError, SolverError
from repro.master import (MasterEquationSolver, RateMatrixBuilder,
                          build_state_space, steadystate)
from repro.master.steadystate import (_solve_stationary,
                                      _solve_stationary_sparse)

from ..conftest import build_double_dot_circuit, build_set_circuit

EQUIVALENCE_TOL = 1e-10


def _solver_pair(circuit_factory, temperature, **kwargs):
    dense = MasterEquationSolver(circuit_factory(), temperature,
                                 method="dense", **kwargs)
    sparse_ = MasterEquationSolver(circuit_factory(), temperature,
                                   method="sparse", **kwargs)
    return dense, sparse_


class TestTransitionTable:
    def test_pairs_match_legacy_transitions(self):
        builder = RateMatrixBuilder(build_set_circuit(drain_voltage=0.05,
                                                      gate_voltage=0.04),
                                    temperature=1.0)
        space = build_state_space([(-2, 2)])
        table = builder.transition_table(space)
        rates, delta = table.rates()
        transitions = table.transitions_list(rates, delta)
        assert transitions, "conducting SET must have transitions"
        for transition in transitions:
            assert 0 <= transition.source_index < space.size
            assert 0 <= transition.target_index < space.size
            assert transition.rate > 0.0

    def test_rates_match_per_state_energy_model(self):
        """The static/bias energy split must reproduce the direct evaluation."""
        from repro.core.rates import orthodox_rate_vec

        circuit = build_set_circuit(drain_voltage=0.037, gate_voltage=0.021)
        builder = RateMatrixBuilder(circuit, temperature=1.3)
        space = build_state_space([(-3, 3)])
        table = builder.transition_table(space)
        rates, delta = table.rates()
        model = builder.model
        for pair in range(table.pair_count):
            electrons = np.array(space.states[table.pair_source[pair]])
            direct = model.event_delta_f(electrons)[table.pair_event[pair]]
            assert delta[pair] == pytest.approx(direct, rel=1e-9, abs=1e-40)
        direct_rates = orthodox_rate_vec(delta, table.resistance, 1.3)
        np.testing.assert_array_equal(rates, direct_rates)

    def test_rate_cache_invalidated_by_bias_change(self):
        circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.0)
        builder = RateMatrixBuilder(circuit, temperature=1.0)
        table = builder.transition_table(build_state_space([(-2, 2)]))
        rates_a, _ = table.rates()
        rates_b, _ = table.rates()
        assert rates_a is rates_b          # cached between bias changes
        circuit.set_source_voltage("VG", 0.03)
        rates_c, _ = table.rates()
        assert rates_c is not rates_b
        assert not np.array_equal(rates_c, rates_b)

    def test_generators_agree_and_conserve_probability(self):
        builder = RateMatrixBuilder(build_set_circuit(drain_voltage=0.05,
                                                      gate_voltage=0.04),
                                    temperature=1.0)
        table = builder.transition_table(build_state_space([(-2, 2)]))
        rates, _ = table.rates()
        dense = table.dense_generator(rates)
        sparse_matrix = table.sparse_generator(rates)
        assert sparse.issparse(sparse_matrix)
        np.testing.assert_allclose(sparse_matrix.toarray(), dense,
                                   rtol=0.0, atol=1e-6 * np.abs(dense).max())
        np.testing.assert_allclose(dense.sum(axis=0), 0.0,
                                   atol=1e-6 * np.abs(dense).max())


class TestSparseDenseEquivalence:
    @pytest.mark.parametrize("drain_voltage,gate_voltage,temperature", [
        (0.05, 0.04, 1.0),     # conducting
        (0.005, 0.0, 0.05),    # deep blockade, strongly reducible chain
        (0.002, 0.08, 1.0),    # near a degeneracy point
        (0.06, 0.12, 0.3),
    ])
    def test_set_window(self, drain_voltage, gate_voltage, temperature):
        factory = lambda: build_set_circuit(drain_voltage=drain_voltage,
                                            gate_voltage=gate_voltage)
        dense, sparse_ = _solver_pair(factory, temperature)
        dense_solution = dense.solve()
        sparse_solution = sparse_.solve()
        assert sparse_solution.space.states == dense_solution.space.states
        np.testing.assert_allclose(sparse_solution.probabilities,
                                   dense_solution.probabilities,
                                   rtol=0.0, atol=EQUIVALENCE_TOL)
        for junction in ("J_drain", "J_source"):
            dense_current = dense_solution.current(junction)
            sparse_current = sparse_solution.current(junction)
            scale = max(abs(dense_current), 1e-18)
            assert abs(sparse_current - dense_current) / scale \
                <= EQUIVALENCE_TOL

    def test_double_dot_window(self):
        def factory():
            circuit = build_double_dot_circuit()
            circuit.set_source_voltage("VL", 0.1)
            return circuit

        dense, sparse_ = _solver_pair(factory, 2.0, extra_electrons=2)
        dense_solution = dense.solve()
        sparse_solution = sparse_.solve()
        np.testing.assert_allclose(sparse_solution.probabilities,
                                   dense_solution.probabilities,
                                   rtol=0.0, atol=EQUIVALENCE_TOL)
        dense_current = dense_solution.current("J_left")
        sparse_current = sparse_solution.current("J_left")
        assert abs(sparse_current - dense_current) \
            <= EQUIVALENCE_TOL * abs(dense_current)

    def test_large_explicit_window_runs_sparse(self):
        space = build_state_space([(-40, 40)])
        circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
        solution = MasterEquationSolver(circuit, temperature=1.0,
                                        state_space=space,
                                        method="sparse").solve()
        assert solution.state_count == 81
        assert solution.probabilities.sum() == pytest.approx(1.0)

    def test_zero_rate_underflow_near_zero_temperature(self):
        """Deep in the blockade at T -> 0 every uphill rate underflows to 0."""
        factory = lambda: build_set_circuit(drain_voltage=0.003,
                                            gate_voltage=0.0)
        dense, sparse_ = _solver_pair(factory, 0.01)
        dense_solution = dense.solve()
        sparse_solution = sparse_.solve()
        state, probability = sparse_solution.dominant_state()
        assert state == (0,)
        assert probability == pytest.approx(1.0)
        assert abs(sparse_solution.current("J_drain")) < 1e-18
        np.testing.assert_allclose(sparse_solution.probabilities,
                                   dense_solution.probabilities,
                                   rtol=0.0, atol=EQUIVALENCE_TOL)

    def test_exactly_zero_temperature(self):
        factory = lambda: build_set_circuit(drain_voltage=0.06,
                                            gate_voltage=0.04)
        dense, sparse_ = _solver_pair(factory, 0.0)
        np.testing.assert_allclose(sparse_.solve().probabilities,
                                   dense.solve().probabilities,
                                   rtol=0.0, atol=EQUIVALENCE_TOL)


class TestReducibleChains:
    """Hand-built generators exercise the absorbing-class machinery directly."""

    @staticmethod
    def _generator(edges, size):
        """CSR generator from ``{(source, target): rate}`` (columns sum to 0)."""
        matrix = np.zeros((size, size))
        for (source, target), rate in edges.items():
            matrix[target, source] += rate
            matrix[source, source] -= rate
        return sparse.csr_matrix(matrix), matrix

    def test_two_absorbing_states_weighted_by_branching(self):
        # 0 -> 1 with rate 1, 0 -> 2 with rate 3: absorption weights 1/4, 3/4.
        sparse_matrix, dense_matrix = self._generator(
            {(0, 1): 1.0, (0, 2): 3.0}, 3)
        probabilities = _solve_stationary_sparse(sparse_matrix, 0)
        np.testing.assert_allclose(probabilities, [0.0, 0.25, 0.75],
                                   atol=1e-12)
        np.testing.assert_allclose(probabilities,
                                   _solve_stationary(dense_matrix, 0),
                                   atol=EQUIVALENCE_TOL)

    def test_two_closed_cycles_weighted_by_absorption(self):
        # 0 branches into two 2-cycles {1, 2} and {3, 4} with rates 2 and 6.
        edges = {(0, 1): 2.0, (0, 3): 6.0,
                 (1, 2): 5.0, (2, 1): 5.0,
                 (3, 4): 1.0, (4, 3): 1.0}
        sparse_matrix, dense_matrix = self._generator(edges, 5)
        probabilities = _solve_stationary_sparse(sparse_matrix, 0)
        np.testing.assert_allclose(probabilities,
                                   [0.0, 0.125, 0.125, 0.375, 0.375],
                                   atol=1e-12)
        np.testing.assert_allclose(probabilities,
                                   _solve_stationary(dense_matrix, 0),
                                   atol=EQUIVALENCE_TOL)

    def test_transient_chain_through_intermediate_states(self):
        # 0 -> 1 -> 2 (absorbing), with a side exit 1 -> 3 (absorbing).
        edges = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 3.0}
        sparse_matrix, dense_matrix = self._generator(edges, 4)
        probabilities = _solve_stationary_sparse(sparse_matrix, 0)
        np.testing.assert_allclose(probabilities, [0.0, 0.0, 0.25, 0.75],
                                   atol=1e-12)
        np.testing.assert_allclose(probabilities,
                                   _solve_stationary(dense_matrix, 0),
                                   atol=EQUIVALENCE_TOL)

    def test_initial_state_inside_closed_class_ignores_other_classes(self):
        # Two disjoint 2-cycles; starting inside one must never leak weight.
        edges = {(0, 1): 1.0, (1, 0): 2.0, (2, 3): 1.0, (3, 2): 1.0}
        sparse_matrix, dense_matrix = self._generator(edges, 4)
        probabilities = _solve_stationary_sparse(sparse_matrix, 0)
        np.testing.assert_allclose(probabilities, [2 / 3, 1 / 3, 0.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(probabilities,
                                   _solve_stationary(dense_matrix, 0),
                                   atol=EQUIVALENCE_TOL)

    def test_unreachable_states_carry_no_probability(self):
        edges = {(0, 1): 1.0, (1, 0): 1.0, (3, 2): 1.0}
        sparse_matrix, _ = self._generator(edges, 4)
        probabilities = _solve_stationary_sparse(sparse_matrix, 0)
        assert probabilities[2] == 0.0
        assert probabilities[3] == 0.0
        assert probabilities.sum() == pytest.approx(1.0)


class TestSweeps:
    def test_sweep_matches_point_solves(self):
        circuit = build_set_circuit(drain_voltage=0.002)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        gates = np.linspace(0.0, 0.2, 21)
        _, swept = solver.sweep_source("VG", gates, "J_drain")
        for gate_value, swept_current in zip(gates, swept):
            point = build_set_circuit(drain_voltage=0.002,
                                      gate_voltage=float(gate_value))
            reference = MasterEquationSolver(point, temperature=1.0) \
                .current("J_drain")
            scale = max(abs(reference), 1e-18)
            assert abs(swept_current - reference) / scale <= EQUIVALENCE_TOL

    def test_sweep_validates_junction_up_front(self):
        circuit = build_set_circuit(drain_voltage=0.002, gate_voltage=0.123)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        with pytest.raises(SolverError, match="J_missing"):
            solver.sweep_source("VG", np.linspace(0.0, 0.1, 5), "J_missing")
        # Fail-fast: the bias must not have been touched at all.
        assert circuit.node("gate").voltage == 0.123

    def test_sweep_restores_bias_on_failure_mid_sweep(self, monkeypatch):
        circuit = build_set_circuit(drain_voltage=0.002, gate_voltage=0.123)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        calls = {"count": 0}
        original = steadystate._stationary_stack

        def failing(table, rates, initial, method):
            calls["count"] += 1
            if calls["count"] >= 2:
                raise SolverError("injected mid-sweep failure")
            return original(table, rates, initial, method)

        # The sweep's three gate values span two windows: two stationary
        # steps, the second of which fails.
        monkeypatch.setattr(steadystate, "_stationary_stack", failing)
        with pytest.raises(SolverError, match="injected"):
            solver.sweep_source("VG", [0.0, 0.05, 0.1], "J_drain")
        # The original operating point must be in place even though the
        # sweep died mid-flight.
        assert circuit.node("gate").voltage == pytest.approx(0.123)

    def test_sweep_checks_each_source_before_solving(self):
        circuit = build_set_circuit(drain_voltage=0.002, gate_voltage=0.123)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        version = circuit.bias_version
        for source in ("dot", "missing"):
            with pytest.raises(CircuitError):
                solver.sweep_source(source, [0.0, 0.05], "J_drain")
        with pytest.raises(CircuitError, match="ground"):
            solver.sweep_source("gnd", [0.0, 0.0, 0.05], "J_drain")
        _, currents = solver.sweep_source("gnd", [0.0, 0.0], "J_drain")
        assert np.array_equal(currents, [solver.current("J_drain")] * 2)
        assert circuit.bias_version == version

    def test_sweep_with_workers_matches_serial(self):
        circuit = build_set_circuit(drain_voltage=0.002)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        gates = np.linspace(0.0, 0.16, 9)
        _, serial = solver.sweep_source("VG", gates, "J_drain", workers=1)
        _, parallel = solver.sweep_source("VG", gates, "J_drain", workers=2)
        np.testing.assert_allclose(parallel, serial, rtol=1e-12)

    def test_sweep_gate_drain_matches_scalar_grid(self):
        circuit = build_set_circuit()
        solver = MasterEquationSolver(circuit, temperature=1.0)
        gates = np.linspace(0.0, 0.08, 4)
        drains = np.linspace(0.01, 0.05, 3)
        _, _, grid = solver.sweep_gate_drain("VG", "VD", gates, drains,
                                             "J_drain")
        assert grid.shape == (drains.size, gates.size)
        for row, drain_value in enumerate(drains):
            for column, gate_value in enumerate(gates):
                point = build_set_circuit(drain_voltage=float(drain_value),
                                          gate_voltage=float(gate_value))
                reference = MasterEquationSolver(point, temperature=1.0) \
                    .current("J_drain")
                scale = max(abs(reference), 1e-18)
                assert abs(grid[row, column] - reference) / scale \
                    <= EQUIVALENCE_TOL
        # The sweep must leave the circuit at its original operating point.
        assert circuit.node("gate").voltage == 0.0
        assert circuit.node("drain").voltage == 0.0

    def test_structure_reuse_keeps_table_between_points(self):
        space = build_state_space([(-3, 3)])
        circuit = build_set_circuit(drain_voltage=0.002)
        solver = MasterEquationSolver(circuit, temperature=1.0,
                                      state_space=space)
        table_before = solver.builder.transition_table()
        solver.sweep_source("VG", np.linspace(0.0, 0.02, 5), "J_drain")
        assert solver.builder.transition_table() is table_before


class TestDynamicsSparse:
    def test_sparse_evolution_matches_dense(self):
        from repro.master import MasterEquationDynamics

        times = np.linspace(0.0, 5e-9, 6)
        factory = lambda: build_set_circuit(drain_voltage=0.05,
                                            gate_voltage=0.04)
        dense = MasterEquationDynamics(factory(), temperature=1.0,
                                       method="dense").evolve(times)
        sparse_ = MasterEquationDynamics(factory(), temperature=1.0,
                                         method="sparse").evolve(times)
        np.testing.assert_allclose(sparse_.probabilities, dense.probabilities,
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(sparse_.junction_currents,
                                   dense.junction_currents,
                                   rtol=1e-8, atol=1e-18)

    def test_unknown_method_rejected(self):
        from repro.master import MasterEquationDynamics

        with pytest.raises(SolverError):
            MasterEquationDynamics(build_set_circuit(), temperature=1.0,
                                   method="magic")


class TestMethodSelection:
    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            MasterEquationSolver(build_set_circuit(), temperature=1.0,
                                 method="magic")

    def test_auto_uses_dense_for_small_windows(self):
        solver = MasterEquationSolver(build_set_circuit(), temperature=1.0)
        assert solver._resolve_method(10) == "dense"
        assert solver._resolve_method(100_000) == "sparse"
