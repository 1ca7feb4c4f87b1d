"""Tests for the Monte-Carlo simulation state."""

import numpy as np
from repro.constants import E_CHARGE
from repro.montecarlo import initial_state

from ..conftest import build_set_circuit

GATE_PERIOD = E_CHARGE / 2e-18


class TestInitialState:
    def test_starts_in_ground_state(self):
        circuit = build_set_circuit(gate_voltage=1.2 * GATE_PERIOD)
        state = initial_state(circuit)
        assert state.electrons[0] == 1
        assert state.time == 0.0
        assert state.event_count == 0

    def test_explicit_electrons_override(self):
        circuit = build_set_circuit()
        state = initial_state(circuit, electrons=np.array([2]))
        assert state.electrons[0] == 2

    def test_transfer_counters_start_at_zero(self):
        state = initial_state(build_set_circuit())
        assert set(state.electron_transfers) == {"J_drain", "J_source"}
        assert all(value == 0.0 for value in state.electron_transfers.values())

    def test_traps_start_in_their_likely_state(self):
        circuit = build_set_circuit()
        circuit.add_charge_trap("T_likely", "dot", 0.1 * E_CHARGE,
                                capture_time=1e-7, emission_time=1e-3)
        circuit.add_charge_trap("T_unlikely", "dot", 0.1 * E_CHARGE,
                                capture_time=1e-3, emission_time=1e-7)
        state = initial_state(circuit)
        assert state.trap_occupancy["T_likely"] is True
        assert state.trap_occupancy["T_unlikely"] is False


class TestCopy:
    def test_copy_is_deep_enough(self):
        state = initial_state(build_set_circuit())
        clone = state.copy()
        clone.electrons[0] = 5
        clone.electron_transfers["J_drain"] = 3.0
        clone.time = 1.0
        assert state.electrons[0] == 0
        assert state.electron_transfers["J_drain"] == 0.0
        assert state.time == 0.0
