"""Tests for the steady-state master-equation solver.

These are the central physics checks of the package: Coulomb blockade
threshold, Coulomb oscillations with period e/Cg, background-charge phase
shifts, and the high-bias ohmic asymptote.
"""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.errors import SolverError
from repro.master import MasterEquationSolver

from ..conftest import build_set_circuit

GATE_PERIOD = E_CHARGE / 2e-18        # 80 mV for the standard device
BLOCKADE_VOLTAGE = E_CHARGE / 4e-18   # 40 mV for the standard device


class TestProbabilities:
    def test_probabilities_sum_to_one(self, set_circuit):
        solution = MasterEquationSolver(set_circuit, temperature=1.0).solve()
        assert solution.probabilities.sum() == pytest.approx(1.0)
        assert np.all(solution.probabilities >= 0.0)

    def test_blockaded_device_sits_in_ground_state(self, blockaded_set_circuit):
        solution = MasterEquationSolver(blockaded_set_circuit, temperature=0.05).solve()
        state, probability = solution.dominant_state()
        assert state == (0,)
        assert probability > 0.999

    def test_occupation_probability_lookup(self, set_circuit):
        solution = MasterEquationSolver(set_circuit, temperature=1.0).solve()
        total = sum(solution.occupation_probability(state)
                    for state in solution.space.states)
        assert total == pytest.approx(1.0)
        assert solution.occupation_probability((99,)) == 0.0

    def test_mean_electron_number_tracks_gate(self):
        circuit = build_set_circuit(gate_voltage=1.0 * GATE_PERIOD)
        solution = MasterEquationSolver(circuit, temperature=0.5).solve()
        assert solution.mean_electron_numbers()[0] == pytest.approx(1.0, abs=0.05)


class TestCoulombBlockade:
    def test_no_current_inside_the_blockade(self):
        circuit = build_set_circuit(drain_voltage=0.3 * BLOCKADE_VOLTAGE,
                                    gate_voltage=0.0)
        current = MasterEquationSolver(circuit, temperature=0.05).current("J_drain")
        assert abs(current) < 1e-16

    def test_current_flows_above_threshold(self):
        circuit = build_set_circuit(drain_voltage=1.3 * BLOCKADE_VOLTAGE,
                                    gate_voltage=0.0)
        current = MasterEquationSolver(circuit, temperature=0.05).current("J_drain")
        assert current > 1e-10

    def test_blockade_is_lifted_at_the_degeneracy_point(self):
        # At Vg = half a period the device conducts even at tiny bias.
        circuit = build_set_circuit(drain_voltage=0.1 * BLOCKADE_VOLTAGE,
                                    gate_voltage=0.5 * GATE_PERIOD)
        current = MasterEquationSolver(circuit, temperature=0.05).current("J_drain")
        assert current > 1e-11

    def test_current_reverses_with_bias(self):
        forward = MasterEquationSolver(
            build_set_circuit(drain_voltage=0.06, gate_voltage=0.04),
            temperature=1.0).current("J_drain")
        backward = MasterEquationSolver(
            build_set_circuit(drain_voltage=-0.06, gate_voltage=0.04),
            temperature=1.0).current("J_drain")
        assert forward > 0.0
        assert backward < 0.0
        assert abs(forward + backward) / forward < 0.05

    def test_current_continuity_through_both_junctions(self, set_circuit):
        solution = MasterEquationSolver(set_circuit, temperature=1.0).solve()
        # In steady state the same current flows through both junctions
        # (conventional current drain -> dot equals dot -> gnd).
        assert solution.current("J_drain") == pytest.approx(solution.current("J_source"),
                                                            rel=1e-6)

    def test_high_bias_approaches_series_resistance(self):
        drain_voltage = 20.0 * BLOCKADE_VOLTAGE
        circuit = build_set_circuit(drain_voltage=drain_voltage)
        current = MasterEquationSolver(circuit, temperature=1.0,
                                       extra_electrons=14).current("J_drain")
        ohmic = drain_voltage / 2e6
        # The SET asymptotically behaves like the two junction resistances in
        # series, offset by the blockade; at 20x the blockade voltage the
        # current should be within ~10 % of the ohmic value.
        assert current == pytest.approx(ohmic, rel=0.12)


class TestCoulombOscillations:
    def test_peak_positions_are_spaced_by_e_over_cg(self):
        circuit = build_set_circuit(drain_voltage=0.002)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        gates = np.linspace(0.0, 0.25, 126)
        _, currents = solver.sweep_source("VG", gates, "J_drain")
        peaks = [gates[i] for i in range(1, len(gates) - 1)
                 if currents[i] >= currents[i - 1] and currents[i] > currents[i + 1]
                 and currents[i] > 0.5 * currents.max()]
        assert len(peaks) >= 3
        spacings = np.diff(peaks)
        assert np.allclose(spacings, GATE_PERIOD, rtol=0.05)

    def test_sweep_restores_original_voltage(self):
        circuit = build_set_circuit(drain_voltage=0.002, gate_voltage=0.123)
        solver = MasterEquationSolver(circuit, temperature=1.0)
        solver.sweep_source("VG", np.linspace(0.0, 0.1, 5), "J_drain")
        assert circuit.node("gate").voltage == pytest.approx(0.123)

    def test_background_charge_shifts_peaks_but_not_their_spacing(self):
        gates = np.linspace(0.0, 0.25, 126)
        reference_peaks, shifted_peaks = [], []
        for offset, peaks in ((0.0, reference_peaks), (0.3 * E_CHARGE, shifted_peaks)):
            circuit = build_set_circuit(drain_voltage=0.002, offset_charge=offset)
            solver = MasterEquationSolver(circuit, temperature=1.0)
            _, currents = solver.sweep_source("VG", gates, "J_drain")
            peaks.extend(gates[i] for i in range(1, len(gates) - 1)
                         if currents[i] >= currents[i - 1]
                         and currents[i] > currents[i + 1]
                         and currents[i] > 0.5 * currents.max())
        # Same spacing ...
        assert np.allclose(np.diff(reference_peaks), np.diff(shifted_peaks), rtol=0.05)
        # ... but shifted positions (by 0.3 periods).
        shift = reference_peaks[0] - shifted_peaks[0]
        assert abs(abs(shift) - 0.3 * GATE_PERIOD) < 0.05 * GATE_PERIOD


class TestDoubleDot:
    def test_interacting_islands_carry_a_series_current(self, double_dot_circuit):
        double_dot_circuit.set_source_voltage("VL", 0.1)
        solver = MasterEquationSolver(double_dot_circuit, temperature=2.0,
                                      extra_electrons=2)
        solution = solver.solve()
        assert solution.current("J_left") == pytest.approx(solution.current("J_right"),
                                                           rel=1e-6)
        assert abs(solution.current("J_left")) > 0.0


class TestErrorHandling:
    def test_unknown_junction_raises(self, set_circuit):
        solution = MasterEquationSolver(set_circuit, temperature=1.0).solve()
        with pytest.raises(SolverError):
            solution.current("J_missing")
