"""Equivalence of the vectorized Monte-Carlo fast path with the scalar reference.

The original per-candidate scalar implementation lives on as a test oracle
(:mod:`tests.montecarlo.reference_kernel`); everything here checks that the
precomputed event tables, the incremental electrostatics and the memoised
rate tables reproduce it — on fresh states exactly, after long incremental
runs to tight tolerance.
"""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.core.energy import EnergyModel
from repro.core.rates import orthodox_rate
from repro.montecarlo import MonteCarloKernel, MonteCarloSimulator, initial_state

from ..conftest import build_double_dot_circuit, build_set_circuit
from .reference_kernel import (
    StepLoop,
    candidate_rates_reference,
    reference_simulator,
)


def make_kernel(circuit, temperature=1.0, seed=0, **kwargs):
    return MonteCarloKernel(circuit, temperature, np.random.default_rng(seed),
                            **kwargs)


def random_set_circuit(rng):
    return build_set_circuit(
        drain_voltage=float(rng.uniform(-0.1, 0.1)),
        gate_voltage=float(rng.uniform(-0.1, 0.1)),
        offset_charge=float(rng.uniform(-0.5, 0.5)) * E_CHARGE,
        junction_capacitance=float(rng.uniform(0.5, 2.0)) * 1e-18,
        gate_capacitance=float(rng.uniform(0.5, 4.0)) * 1e-18,
        junction_resistance=float(rng.uniform(1e5, 1e7)),
    )


def assert_rates_match(loop, state, rtol=1e-12):
    """The step loop's vectorized rates against the scalar reference."""
    fast_candidates, fast_rates = loop.candidate_rates(state)
    ref_candidates, ref_rates = candidate_rates_reference(loop.kernel, state)
    assert [c.label for c in fast_candidates] == [c.label for c in ref_candidates]
    np.testing.assert_allclose(fast_rates, ref_rates, rtol=rtol, atol=0.0)


class TestCandidateRateEquivalence:
    @pytest.mark.parametrize("temperature", [0.0, 0.1, 1.0, 77.0])
    def test_random_single_island_circuits(self, temperature):
        rng = np.random.default_rng(11)
        for _ in range(20):
            circuit = random_set_circuit(rng)
            kernel = make_kernel(circuit, temperature=temperature)
            state = initial_state(circuit, kernel.model)
            state.electrons = np.array([int(rng.integers(-3, 4))], dtype=np.int64)
            assert_rates_match(StepLoop(kernel), state)

    @pytest.mark.parametrize("temperature", [0.0, 0.5, 4.2])
    def test_random_double_island_circuits(self, temperature):
        rng = np.random.default_rng(23)
        for _ in range(10):
            circuit = build_double_dot_circuit(bias_voltage=float(
                rng.uniform(-0.05, 0.05)))
            kernel = make_kernel(circuit, temperature=temperature)
            state = initial_state(circuit, kernel.model)
            state.electrons = rng.integers(-2, 3, size=2).astype(np.int64)
            assert_rates_match(StepLoop(kernel), state)

    def test_cotunneling_channels_match(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            circuit = random_set_circuit(rng)
            kernel = make_kernel(circuit, temperature=0.2,
                                 include_cotunneling=True)
            state = initial_state(circuit, kernel.model)
            assert_rates_match(StepLoop(kernel), state)

    def test_trap_circuit_matches_in_both_occupations(self):
        circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.02)
        circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE, 1e-6, 2e-6)
        kernel = make_kernel(circuit, temperature=1.0)
        loop = StepLoop(kernel)
        state = initial_state(circuit, kernel.model)
        for occupied in (False, True, False):
            state.trap_occupancy["T1"] = occupied
            assert_rates_match(loop, state)


class TestEventTable:
    def test_delta_f_matches_scalar_free_energy(self):
        rng = np.random.default_rng(3)
        for builder in (lambda: random_set_circuit(rng),
                        lambda: build_double_dot_circuit(
                            bias_voltage=float(rng.uniform(-0.02, 0.02)))):
            for _ in range(5):
                circuit = builder()
                model = EnergyModel(circuit)
                electrons = rng.integers(-2, 3,
                                         size=model.island_count).astype(np.int64)
                voltages = model.system.source_voltage_vector()
                potentials = model.island_potentials(electrons, voltages)
                deltas = model.table.delta_f(potentials, voltages)
                for event, delta in zip(model.events(), deltas):
                    scalar = model.free_energy_change_from_potentials(
                        potentials, event, voltages)
                    assert delta == scalar

    def test_delta_n_reproduces_apply_event(self):
        circuit = build_double_dot_circuit()
        model = EnergyModel(circuit)
        electrons = np.array([1, -1], dtype=np.int64)
        for k, event in enumerate(model.events()):
            expected = model.apply_event(electrons, event)
            np.testing.assert_array_equal(electrons + model.table.delta_n[k],
                                          expected)

    def test_delta_phi_matches_full_resolve(self):
        circuit = build_double_dot_circuit()
        model = EnergyModel(circuit)
        voltages = model.system.source_voltage_vector()
        electrons = np.array([0, 1], dtype=np.int64)
        before = model.island_potentials(electrons, voltages)
        for k, event in enumerate(model.events()):
            after_electrons = model.apply_event(electrons, event)
            exact = model.island_potentials(after_electrons, voltages)
            incremental = before + model.table.delta_phi[k]
            np.testing.assert_allclose(incremental, exact, rtol=1e-12, atol=0.0)


class TestIncrementalElectrostatics:
    def test_memoised_tables_stay_exact_after_long_runs(self):
        # Run many events with a large resync interval so most entries are
        # derived incrementally, then audit every memoised cumulative table
        # against a fresh scalar evaluation of the same configuration.
        circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
        simulator = MonteCarloSimulator(circuit, temperature=1.0, seed=8,
                                        resync_interval=10_000)
        state = simulator.new_state()
        simulator.run(max_events=5_000, state=state)
        kernel = simulator.kernel
        assert kernel._rate_cache, "expected memoised configurations"
        for entry in kernel._rate_cache.values():
            probe = simulator.new_state()
            probe.electrons = entry.electrons.copy()
            # A fresh potential solve.
            exact = StepLoop(kernel)._compute_rates(probe).copy()
            np.testing.assert_allclose(entry.cumulative, np.cumsum(exact),
                                       rtol=1e-9)

    def test_bias_change_invalidates_memo(self):
        circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.0)
        kernel = make_kernel(circuit, temperature=1.0)
        loop = StepLoop(kernel)
        state = initial_state(circuit, kernel.model)
        loop.step(state)
        circuit.set_source_voltage("VG", 0.04)
        assert_rates_match(loop, state)

    def test_offset_change_invalidates_memo(self):
        circuit = build_set_circuit(drain_voltage=0.05)
        kernel = make_kernel(circuit, temperature=1.0)
        loop = StepLoop(kernel)
        state = initial_state(circuit, kernel.model)
        loop.step(state)
        circuit.set_offset_charge("dot", 0.3 * E_CHARGE)
        assert_rates_match(loop, state)


class TestFastPathTrajectories:
    def test_fast_and_reference_currents_agree_statistically(self):
        def current(fast):
            circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
            build = MonteCarloSimulator if fast else reference_simulator
            simulator = build(circuit, temperature=1.0, seed=17)
            return simulator.stationary_current("J_drain", max_events=8_000,
                                                warmup_events=500)

        fast = current(True)
        reference = current(False)
        assert fast.mean == pytest.approx(reference.mean, rel=0.1)
        # The reference draws its randoms one at a time: a bit-equal mean
        # would mean it ran the advance loop instead of its own step.
        assert fast.mean != reference.mean

    def test_fast_path_reproducible_with_seed(self):
        results = []
        for _ in range(2):
            circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
            simulator = MonteCarloSimulator(circuit, temperature=1.0, seed=42)
            result = simulator.run(max_events=500)
            results.append((result.duration, result.electron_transfers))
        assert results[0] == results[1]


class TestBatchedSweep:
    def test_warm_and_cold_sweeps_agree(self):
        gates = np.linspace(0.0, 0.08, 5)

        def sweep(warm):
            circuit = build_set_circuit(drain_voltage=0.01)
            simulator = MonteCarloSimulator(circuit, temperature=0.5, seed=9)
            return simulator.sweep_source("VG", gates, "J_drain",
                                          max_events=3_000, warmup_events=300,
                                          warm_start=warm)[1]

        warm = sweep(True)
        cold = sweep(False)
        # The conducting peak must agree; deep-blockade points are ~0 either way.
        peak = np.argmax(np.abs(cold))
        assert warm[peak] == pytest.approx(cold[peak], rel=0.2)

    def test_parallel_sweep_matches_shapes_and_restores_bias(self):
        gates = np.linspace(0.0, 0.08, 6)
        circuit = build_set_circuit(drain_voltage=0.01)
        simulator = MonteCarloSimulator(circuit, temperature=0.5, seed=4)
        values, currents, errors = simulator.sweep_source(
            "VG", gates, "J_drain", max_events=1_000, warmup_events=100,
            workers=2)
        assert currents.shape == gates.shape and errors.shape == gates.shape
        assert np.all(np.isfinite(currents))
        assert circuit.node("gate").voltage == 0.0


class TestMasterBuilderEquivalence:
    def test_transitions_match_legacy_scalar_builder(self):
        from repro.master.builder import RateMatrixBuilder

        circuit = build_set_circuit(drain_voltage=0.03, gate_voltage=0.02)
        builder = RateMatrixBuilder(circuit, temperature=0.5)
        space = builder.state_space()
        model = builder.model
        voltages = model.system.source_voltage_vector()

        legacy = []
        for source_index, configuration in enumerate(space.states):
            electrons = np.array(configuration, dtype=np.int64)
            potentials = model.island_potentials(electrons, voltages)
            for event in model.events():
                target = model.apply_event(electrons, event)
                target_key = tuple(int(v) for v in target)
                if target_key not in space.index:
                    continue
                delta_f = model.free_energy_change_from_potentials(
                    potentials, event, voltages)
                rate = orthodox_rate(delta_f, event.junction.resistance, 0.5)
                if rate <= 0.0:
                    continue
                legacy.append((source_index, space.index[target_key],
                               event.junction.name, event.direction, rate,
                               delta_f))

        vectorized = [(t.source_index, t.target_index, t.junction_name,
                       t.electron_direction, t.rate, t.delta_f)
                      for t in builder.transitions(space)]
        assert len(vectorized) == len(legacy)
        for fast, ref in zip(vectorized, legacy):
            assert fast[:4] == ref[:4]
            assert fast[4] == pytest.approx(ref[4], rel=1e-12)
            assert fast[5] == pytest.approx(ref[5], rel=1e-12, abs=0.0)
