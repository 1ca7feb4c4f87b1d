"""Tests for co-tunnelling channel enumeration and its transport signature."""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.core import EnergyModel
from repro.montecarlo import (
    MonteCarloSimulator,
    enumerate_cotunnel_candidates,
    intermediate_energies,
)

from ..conftest import build_set_circuit

BLOCKADE_VOLTAGE = E_CHARGE / 4e-18


class TestEnumeration:
    def test_set_has_two_cotunnel_channels(self):
        # One channel per traversal direction: drain -> island -> source and
        # source -> island -> drain.
        circuit = build_set_circuit()
        model = EnergyModel(circuit)
        candidates = enumerate_cotunnel_candidates(circuit, model)
        assert len(candidates) == 2

    def test_channels_chain_through_a_shared_island(self):
        circuit = build_set_circuit()
        model = EnergyModel(circuit)
        for candidate in enumerate_cotunnel_candidates(circuit, model):
            assert candidate.first.target_node == candidate.second.source_node
            assert candidate.first.junction.name != candidate.second.junction.name

    def test_double_dot_has_a_channel_through_each_island(self, double_dot_circuit):
        model = EnergyModel(double_dot_circuit)
        candidates = enumerate_cotunnel_candidates(double_dot_circuit, model)
        # Two traversal directions through each of the two islands.
        assert len(candidates) == 4
        intermediate_islands = {candidate.first.target_node for candidate in candidates}
        assert intermediate_islands == {"dot_a", "dot_b"}

    def test_intermediate_energies_positive_inside_blockade(self):
        circuit = build_set_circuit(drain_voltage=0.5 * BLOCKADE_VOLTAGE)
        model = EnergyModel(circuit)
        candidates = enumerate_cotunnel_candidates(circuit, model)
        electrons = np.zeros(1, dtype=np.int64)
        energies = [intermediate_energies(model, electrons, candidate)
                    for candidate in candidates]
        assert all(first > 0.0 for first, _ in energies)


class TestTransportSignature:
    def test_cotunneling_leaks_current_through_the_blockade(self):
        # Deep inside the blockade, sequential tunnelling is frozen out at
        # T = 0 but co-tunnelling still carries a (small) current.
        make = lambda: build_set_circuit(drain_voltage=0.6 * BLOCKADE_VOLTAGE,
                                         gate_voltage=0.0)
        sequential = MonteCarloSimulator(make(), temperature=0.0, seed=1,
                                         include_cotunneling=False)
        cotunneling = MonteCarloSimulator(make(), temperature=0.0, seed=1,
                                          include_cotunneling=True)
        blocked = sequential.stationary_current("J_drain", max_events=1000,
                                                warmup_events=0)
        leaking = cotunneling.stationary_current("J_drain", max_events=1000,
                                                 warmup_events=0)
        assert blocked.mean == pytest.approx(0.0, abs=1e-20)
        assert leaking.mean > 0.0

    def test_cotunneling_current_is_a_small_correction_when_conducting(self):
        make = lambda: build_set_circuit(drain_voltage=2.0 * BLOCKADE_VOLTAGE,
                                         gate_voltage=0.0)
        without = MonteCarloSimulator(make(), temperature=0.5, seed=2,
                                      include_cotunneling=False) \
            .stationary_current("J_drain", max_events=6000, warmup_events=500)
        with_cot = MonteCarloSimulator(make(), temperature=0.5, seed=2,
                                       include_cotunneling=True) \
            .stationary_current("J_drain", max_events=6000, warmup_events=500)
        assert with_cot.mean == pytest.approx(without.mean, rel=0.2)

    def test_cotunneling_current_grows_steeply_with_bias(self):
        # The T = 0 co-tunnelling current scales roughly as V^3: doubling the
        # bias deep in the blockade should boost the current by far more than 2x.
        currents = []
        for bias in (0.3 * BLOCKADE_VOLTAGE, 0.6 * BLOCKADE_VOLTAGE):
            circuit = build_set_circuit(drain_voltage=bias, gate_voltage=0.0)
            simulator = MonteCarloSimulator(circuit, temperature=0.0, seed=3,
                                            include_cotunneling=True)
            currents.append(simulator.stationary_current(
                "J_drain", max_events=800, warmup_events=0).mean)
        assert currents[1] > 4.0 * currents[0]
