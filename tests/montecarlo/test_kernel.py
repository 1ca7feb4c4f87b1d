"""Tests for the kinetic Monte-Carlo kernel.

Candidate rates, effective offsets and single steps are the step loop's
(``reference_kernel.StepLoop`` over a kernel's tables), the oracle the
advance loop is held to.
"""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.errors import SimulationError
from repro.montecarlo import MonteCarloKernel, initial_state

from ..conftest import build_set_circuit
from .reference_kernel import StepLoop

BLOCKADE_VOLTAGE = E_CHARGE / 4e-18


def make_kernel(circuit, temperature=1.0, seed=0, **kwargs):
    return MonteCarloKernel(circuit, temperature, np.random.default_rng(seed), **kwargs)


class TestCandidateRates:
    def test_conducting_point_has_positive_total_rate(self, set_circuit):
        kernel = make_kernel(set_circuit)
        state = initial_state(set_circuit, kernel.model)
        candidates, rates = StepLoop(kernel).candidate_rates(state)
        assert len(candidates) == len(rates)
        assert rates.sum() > 0.0

    def test_blockaded_point_at_zero_temperature_has_no_events(self):
        circuit = build_set_circuit(drain_voltage=0.2 * BLOCKADE_VOLTAGE)
        kernel = make_kernel(circuit, temperature=0.0)
        state = initial_state(circuit, kernel.model)
        _, rates = StepLoop(kernel).candidate_rates(state)
        assert rates.size == 0 or rates.sum() == 0.0

    def test_trap_candidates_present_when_traps_exist(self):
        circuit = build_set_circuit(drain_voltage=0.05)
        circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE, 1e-6, 1e-6)
        kernel = make_kernel(circuit)
        state = initial_state(circuit, kernel.model)
        candidates, _ = StepLoop(kernel).candidate_rates(state)
        labels = [candidate.label for candidate in candidates]
        assert any(label.startswith("trap:") for label in labels)

    def test_occupied_trap_changes_effective_offset(self):
        circuit = build_set_circuit(drain_voltage=0.05)
        circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE, 1e-6, 1e-6)
        kernel = make_kernel(circuit)
        loop = StepLoop(kernel)
        state = initial_state(circuit, kernel.model)
        state.trap_occupancy["T1"] = False
        empty = loop.effective_offsets(state)[0]
        state.trap_occupancy["T1"] = True
        occupied = loop.effective_offsets(state)[0]
        assert occupied - empty == pytest.approx(0.2 * E_CHARGE)

    def test_cotunneling_adds_candidates_inside_blockade(self):
        circuit = build_set_circuit(drain_voltage=0.5 * BLOCKADE_VOLTAGE)
        plain = make_kernel(circuit, temperature=0.0)
        with_cot = make_kernel(circuit, temperature=0.0, include_cotunneling=True)
        state_plain = initial_state(circuit, plain.model)
        state_cot = initial_state(circuit, with_cot.model)
        _, rates_plain = StepLoop(plain).candidate_rates(state_plain)
        _, rates_cot = StepLoop(with_cot).candidate_rates(state_cot)
        total_plain = rates_plain.sum() if rates_plain.size else 0.0
        total_cot = rates_cot.sum() if rates_cot.size else 0.0
        assert total_plain == 0.0
        assert total_cot > 0.0


class TestStep:
    def test_step_advances_time_and_counts(self, set_circuit):
        kernel = make_kernel(set_circuit)
        state = initial_state(set_circuit, kernel.model)
        outcome = StepLoop(kernel).step(state)
        assert outcome is not None
        assert state.time > 0.0
        assert state.event_count == 1

    def test_step_respects_waiting_time_cap(self):
        circuit = build_set_circuit(drain_voltage=0.2 * BLOCKADE_VOLTAGE)
        kernel = make_kernel(circuit, temperature=0.0)
        state = initial_state(circuit, kernel.model)
        outcome = StepLoop(kernel).step(state, max_waiting_time=1e-9)
        assert outcome is None
        assert state.time == pytest.approx(1e-9)

    def test_steps_are_reproducible_with_seed(self, set_circuit):
        results = []
        for _ in range(2):
            kernel = make_kernel(set_circuit, seed=42)
            loop = StepLoop(kernel)
            state = initial_state(set_circuit, kernel.model)
            for _ in range(50):
                loop.step(state)
            results.append((state.time, dict(state.electron_transfers)))
        assert results[0][0] == pytest.approx(results[1][0])
        assert results[0][1] == results[1][1]

    def test_negative_temperature_rejected(self, set_circuit):
        with pytest.raises(SimulationError):
            make_kernel(set_circuit, temperature=-1.0)
