"""Tests for the orthodox free-energy model."""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.core import EnergyModel, TunnelEvent
from repro.errors import CircuitError

from ..conftest import build_double_dot_circuit, build_set_circuit


def textbook_set_delta_f(n, q0, c1, c2, cg, v1, v2, vg):
    """Free-energy change for an electron entering the island through junction 1."""
    c_total = c1 + c2 + cg
    return (E_CHARGE / c_total) * (0.5 * E_CHARGE + n * E_CHARGE - q0
                                   + (c2 + cg) * v1 - c2 * v2 - cg * vg)


class TestTunnelEvent:
    def test_direction_and_nodes(self):
        circuit = build_set_circuit()
        junction = circuit.element("J_drain")
        event = TunnelEvent(junction, +1)
        assert event.source_node == "drain"
        assert event.target_node == "dot"
        reverse = event.reversed()
        assert reverse.source_node == "dot"
        assert reverse.target_node == "drain"

    def test_invalid_direction_rejected(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            TunnelEvent(circuit.element("J_drain"), 2)


class TestSETFreeEnergy:
    def test_matches_textbook_formula(self):
        q0 = 0.13 * E_CHARGE
        circuit = build_set_circuit(drain_voltage=0.5e-3, gate_voltage=0.3e-3,
                                    offset_charge=q0)
        model = EnergyModel(circuit)
        event = next(e for e in model.events()
                     if e.junction.name == "J_drain" and e.source_node == "drain")
        expected = textbook_set_delta_f(0, q0, 1e-18, 1e-18, 2e-18, 0.5e-3, 0.0, 0.3e-3)
        assert model.free_energy_change(np.zeros(1, dtype=int), event) == \
            pytest.approx(expected, rel=1e-10)

    def test_matches_textbook_formula_with_electrons_present(self):
        circuit = build_set_circuit(drain_voltage=2e-3, gate_voltage=5e-3)
        model = EnergyModel(circuit)
        event = next(e for e in model.events()
                     if e.junction.name == "J_drain" and e.source_node == "drain")
        expected = textbook_set_delta_f(2, 0.0, 1e-18, 1e-18, 2e-18, 2e-3, 0.0, 5e-3)
        assert model.free_energy_change(np.array([2]), event) == \
            pytest.approx(expected, rel=1e-10)

    def test_fast_formula_agrees_with_bookkeeping(self):
        circuit = build_set_circuit(drain_voltage=1e-3, gate_voltage=0.7e-3,
                                    offset_charge=0.21 * E_CHARGE)
        model = EnergyModel(circuit)
        for electrons in ([0], [1], [-2]):
            for event in model.events():
                fast = model.free_energy_change(np.array(electrons), event)
                slow = model.free_energy_change_bookkeeping(np.array(electrons), event)
                assert fast == pytest.approx(slow, rel=1e-9, abs=1e-30)

    def test_forward_backward_antisymmetry(self):
        circuit = build_set_circuit(drain_voltage=1e-3, gate_voltage=2e-3)
        model = EnergyModel(circuit)
        electrons = np.array([0])
        for event in model.events():
            forward = model.free_energy_change(electrons, event)
            after = model.apply_event(electrons, event)
            backward = model.free_energy_change(after, event.reversed())
            assert forward == pytest.approx(-backward, rel=1e-9, abs=1e-32)

    def test_blockade_at_zero_bias(self):
        # With no bias every event must cost energy: that is the Coulomb blockade.
        model = EnergyModel(build_set_circuit())
        energies = [delta for _, delta in model.event_energies(np.zeros(1, dtype=int))]
        assert min(energies) > 0.0

    def test_degeneracy_point_at_half_period(self):
        # At Vg = e / (2 Cg) adding the first electron costs exactly nothing.
        circuit = build_set_circuit(gate_voltage=E_CHARGE / (2.0 * 2e-18))
        model = EnergyModel(circuit)
        event = next(e for e in model.events()
                     if e.junction.name == "J_source" and e.target_node == "dot")
        delta = model.free_energy_change(np.zeros(1, dtype=int), event)
        assert delta == pytest.approx(0.0, abs=1e-26)


class TestDoubleDotFreeEnergy:
    def test_antisymmetry_holds_for_all_events(self, double_dot_circuit):
        model = EnergyModel(double_dot_circuit)
        electrons = np.array([1, -1])
        for event in model.events():
            forward = model.free_energy_change(electrons, event)
            after = model.apply_event(electrons, event)
            backward = model.free_energy_change(after, event.reversed())
            assert forward == pytest.approx(-backward, rel=1e-9, abs=1e-32)

    def test_island_to_island_event_conserves_total_electrons(self, double_dot_circuit):
        model = EnergyModel(double_dot_circuit)
        event = next(e for e in model.events()
                     if e.junction.name == "J_mid" and e.direction == +1)
        before = np.array([0, 0])
        after = model.apply_event(before, event)
        assert after.sum() == before.sum()
        assert after[model.island_index("dot_a")] == -1
        assert after[model.island_index("dot_b")] == 1


class TestGroundState:
    def test_unbiased_set_ground_state_is_neutral(self):
        model = EnergyModel(build_set_circuit())
        assert np.array_equal(model.ground_state(), np.zeros(1, dtype=int))

    def test_large_gate_voltage_traps_electrons(self):
        # Vg = 2.2 periods should trap two extra electrons (nearest integer).
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(gate_voltage=2.2 * period))
        assert model.ground_state(max_electrons=6)[0] == 2

    def test_ground_state_is_stable(self):
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(gate_voltage=1.3 * period))
        ground = model.ground_state()
        assert model.is_stable(ground)

    def test_quadratic_free_energy_minimised_at_ground_state(self):
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(gate_voltage=0.8 * period))
        ground = model.ground_state()
        ground_energy = model.quadratic_free_energy(ground)
        for n in range(-3, 4):
            assert model.quadratic_free_energy(np.array([n])) >= ground_energy - 1e-30


def reference_walk(model, max_electrons, voltages=None, offsets=None):
    """The greedy walk step by step through :meth:`event_delta_f`."""
    electrons = model.zero_state()
    budget = (2 * max_electrons + 1) ** max(1, model.island_count)
    for _ in range(budget):
        deltas = model.event_delta_f(electrons, voltages, offsets)
        best = int(np.argmin(deltas))
        if deltas[best] >= 0.0:
            return electrons
        candidate = electrons + model.table.delta_n[best]
        if np.any(np.abs(candidate) > max_electrons):
            return electrons
        electrons = candidate
    return electrons


class TestGroundStates:
    """One walk records the stop point of every limit, bit for bit."""

    LIMITS = (1, 2, 5, 8)

    @pytest.mark.parametrize("gate_periods", [0.0, 0.6, 2.2, 6.4, -7.3])
    @pytest.mark.parametrize("drain", [0.0, 0.01, 0.3, 2.0])
    def test_set_walk_matches_reference(self, gate_periods, drain):
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(
            drain_voltage=drain, gate_voltage=gate_periods * period))
        expected = [reference_walk(model, limit) for limit in self.LIMITS]
        actual = model.ground_states(self.LIMITS)
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("bias", [0.0, 0.05, 0.4, -1.5])
    def test_double_dot_walk_with_explicit_bias(self, bias):
        model = EnergyModel(build_double_dot_circuit())
        voltages = model.system.source_voltage_vector()
        for node, value in (("lead", bias), ("gate_a", 0.3), ("gate_b", -0.2)):
            voltages[model.system.source_index[node]] = value
        offsets = np.array([0.2, -0.4]) * E_CHARGE
        expected = [reference_walk(model, limit, voltages, offsets)
                    for limit in self.LIMITS]
        actual = model.ground_states(self.LIMITS, voltages, offsets)
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)
        assert np.array_equal(model.ground_state(2, voltages, offsets),
                              expected[1])

    @pytest.mark.parametrize("circuit", ["set", "double_dot"])
    def test_stacked_walk_matches_reference_rows(self, circuit):
        """One walk over a voltage stack: points that conduct go round
        loops of two or three states, others stop early or at a limit."""
        if circuit == "set":
            model = EnergyModel(build_set_circuit())
            offsets = np.array([0.1]) * E_CHARGE
        else:
            model = EnergyModel(build_double_dot_circuit())
            offsets = np.array([0.2, -0.4]) * E_CHARGE
        rng = np.random.default_rng(11)
        stack = np.tile(model.system.source_voltage_vector(), (60, 1))
        for node in model.system.source_names[1:]:
            stack[:, model.system.source_index[node]] = rng.choice(
                [0.0, 0.02, 0.1, 0.4, -1.5, 3.0], size=60) \
                * rng.uniform(0.5, 1.5, size=60)
        actual = model.ground_states(self.LIMITS, stack, offsets)
        for row, voltages in enumerate(stack):
            for limit, got in zip(self.LIMITS, actual):
                assert np.array_equal(
                    got[row], reference_walk(model, limit, voltages, offsets))

    def test_walks_that_leave_the_limit_stop_early(self):
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(gate_voltage=6.4 * period))
        small, large = model.ground_states((5, 8))
        assert small[0] == 5 and large[0] == 6


class TestValidationOfInputs:
    def test_wrong_electron_vector_length_raises(self):
        model = EnergyModel(build_set_circuit())
        with pytest.raises(CircuitError):
            model.island_charges([0, 1])

    def test_island_potentials_shape(self, double_dot_circuit):
        model = EnergyModel(double_dot_circuit)
        potentials = model.island_potentials(np.zeros(2, dtype=int))
        assert potentials.shape == (2,)
