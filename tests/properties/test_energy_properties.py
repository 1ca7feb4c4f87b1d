"""Property-based tests of the electrostatic free-energy model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.constants import E_CHARGE
from repro.core import CapacitanceSystem, EnergyModel

# Reasonable physical parameter ranges: attofarad capacitances, millivolt
# biases, fractional offset charges.
capacitances = st.floats(min_value=0.05e-18, max_value=20e-18)
voltages = st.floats(min_value=-0.2, max_value=0.2)
offsets = st.floats(min_value=-0.5, max_value=0.5)
electron_numbers = st.integers(min_value=-3, max_value=3)


def build_parametrised_set(c_drain, c_source, c_gate, vd, vg, q0_fraction):
    circuit = Circuit("property_set")
    circuit.add_island("dot", offset_charge=q0_fraction * E_CHARGE)
    circuit.add_voltage_source("VD", "drain", vd)
    circuit.add_voltage_source("VG", "gate", vg)
    circuit.add_junction("J_drain", "drain", "dot", c_drain, 1e6)
    circuit.add_junction("J_source", "dot", "gnd", c_source, 1e6)
    circuit.add_capacitor("C_gate", "gate", "dot", c_gate)
    return circuit


class TestSETFreeEnergyProperties:
    @given(c_drain=capacitances, c_source=capacitances, c_gate=capacitances,
           vd=voltages, vg=voltages, q0=offsets, n=electron_numbers)
    @settings(max_examples=60, deadline=None)
    def test_fast_and_bookkeeping_formulations_agree(self, c_drain, c_source,
                                                     c_gate, vd, vg, q0, n):
        circuit = build_parametrised_set(c_drain, c_source, c_gate, vd, vg, q0)
        model = EnergyModel(circuit)
        electrons = np.array([n])
        for event in model.events():
            fast = model.free_energy_change(electrons, event)
            slow = model.free_energy_change_bookkeeping(electrons, event)
            scale = max(abs(fast), abs(slow), 1e-25)
            assert abs(fast - slow) <= 1e-7 * scale

    @given(c_drain=capacitances, c_source=capacitances, c_gate=capacitances,
           vd=voltages, vg=voltages, q0=offsets, n=electron_numbers)
    @settings(max_examples=60, deadline=None)
    def test_forward_backward_antisymmetry(self, c_drain, c_source, c_gate,
                                           vd, vg, q0, n):
        circuit = build_parametrised_set(c_drain, c_source, c_gate, vd, vg, q0)
        model = EnergyModel(circuit)
        electrons = np.array([n])
        for event in model.events():
            forward = model.free_energy_change(electrons, event)
            after = model.apply_event(electrons, event)
            backward = model.free_energy_change(after, event.reversed())
            scale = max(abs(forward), abs(backward), 1e-25)
            assert abs(forward + backward) <= 1e-7 * scale

    @given(c_drain=capacitances, c_source=capacitances, c_gate=capacitances,
           q0=offsets, n=electron_numbers)
    @settings(max_examples=40, deadline=None)
    def test_unbiased_circuit_is_blockaded_in_its_ground_state(self, c_drain,
                                                               c_source, c_gate,
                                                               q0, n):
        circuit = build_parametrised_set(c_drain, c_source, c_gate, 0.0, 0.0, q0)
        model = EnergyModel(circuit)
        ground = model.ground_state()
        # Every event out of the T = 0 ground state must cost energy (or be
        # exactly degenerate at q0 = +-e/2).
        energies = [delta for _, delta in model.event_energies(ground)]
        assert min(energies) >= -1e-25

    @given(c_gate=capacitances, vg=voltages, q0=offsets)
    @settings(max_examples=40, deadline=None)
    def test_offset_charge_and_gate_voltage_are_interchangeable(self, c_gate, vg, q0):
        # A background charge q0 acts exactly like a gate shift of q0 / Cg:
        # the electron-addition energy must be identical in the two circuits.
        shifted_gate = build_parametrised_set(1e-18, 1e-18, c_gate, 0.0,
                                              vg + q0 * E_CHARGE / c_gate, 0.0)
        shifted_charge = build_parametrised_set(1e-18, 1e-18, c_gate, 0.0, vg, q0)
        model_gate = EnergyModel(shifted_gate)
        model_charge = EnergyModel(shifted_charge)
        electrons = np.zeros(1, dtype=int)
        for event_gate, event_charge in zip(model_gate.events(),
                                            model_charge.events()):
            a = model_gate.free_energy_change(electrons, event_gate)
            b = model_charge.free_energy_change(electrons, event_charge)
            assert abs(a - b) <= 1e-7 * max(abs(a), abs(b), 1e-25)


class TestCapacitanceMatrixProperties:
    @given(coupling=capacitances, c_gate_a=capacitances, c_gate_b=capacitances,
           c_left=capacitances, c_right=capacitances)
    @settings(max_examples=40, deadline=None)
    def test_double_dot_matrix_is_symmetric_positive_definite(self, coupling,
                                                              c_gate_a, c_gate_b,
                                                              c_left, c_right):
        circuit = Circuit("double")
        circuit.add_island("a")
        circuit.add_island("b")
        circuit.add_voltage_source("VL", "lead", 0.0)
        circuit.add_voltage_source("VG", "gate", 0.0)
        circuit.add_junction("J_left", "lead", "a", c_left, 1e6)
        circuit.add_junction("J_mid", "a", "b", coupling, 1e6)
        circuit.add_junction("J_right", "b", "gnd", c_right, 1e6)
        circuit.add_capacitor("C_ga", "gate", "a", c_gate_a)
        circuit.add_capacitor("C_gb", "gate", "b", c_gate_b)
        system = CapacitanceSystem(circuit)
        assert np.allclose(system.maxwell, system.maxwell.T)
        eigenvalues = np.linalg.eigvalsh(system.maxwell)
        assert np.all(eigenvalues > 0.0)
        # Row sums equal the coupling to fixed-potential nodes.
        row_sums = system.maxwell.sum(axis=1)
        source_totals = system.coupling.sum(axis=1)
        assert np.allclose(row_sums, source_totals, rtol=1e-9, atol=1e-30)
