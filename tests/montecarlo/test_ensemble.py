"""Tests for the ensemble Monte-Carlo runs.

The two anchors required by the ensemble design:

* an ``R = 1`` ensemble must reproduce the per-event step loop's trajectory
  (the oracle ``reference_kernel.StepLoop``) event for event (waiting times, executed events, occupations) under a
  fixed seed, and
* ensemble (replica-spread) current estimates must agree with the scalar
  block-averaged estimator within combined error bars on the reference SET.
"""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.errors import SimulationError
from repro.montecarlo import MonteCarloSimulator, initial_ensemble

from .reference_kernel import StepLoop

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04


def make_simulator(seed=11, **kwargs):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                       gate_voltage=GATE_VOLTAGE)
    return MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=seed,
                               **kwargs)


class TestSingleReplicaEquivalence:
    def test_trajectory_is_identical_event_for_event(self):
        # One-event runs of an R = 1 ensemble against the step loop: the
        # block random buffers carry over between runs, so every event has
        # the same waiting time, the same junction and the same occupation.
        scalar = make_simulator(seed=42)
        batched = make_simulator(seed=42)
        loop = StepLoop(scalar.kernel)
        state = scalar.new_state()
        ensemble = batched.new_ensemble(1)
        columns = [ensemble.junction_column(name)
                   for name in state.electron_transfers]
        for _ in range(1_000):
            step = loop.step(state)
            result = batched.run_ensemble(max_events=1, ensemble=ensemble)
            assert step is not None
            assert int(result.event_counts[0]) == 1
            assert ensemble.times[0] == state.time
            assert np.array_equal(ensemble.electrons[0], state.electrons)
            assert ensemble.electron_transfers[0, columns].tolist() == \
                list(state.electron_transfers.values())
        assert int(ensemble.event_counts[0]) == state.event_count

    def test_run_ensemble_matches_scalar_run_totals(self):
        scalar = make_simulator(seed=9)
        batched = make_simulator(seed=9)
        scalar_result = scalar.run(max_events=2_000)
        ensemble_result = batched.run_ensemble(replicas=1, max_events=2_000)
        assert ensemble_result.total_events == scalar_result.event_count
        assert ensemble_result.durations[0] == scalar_result.duration
        for name, transferred in scalar_result.electron_transfers.items():
            column = ensemble_result.junction_names.index(name)
            assert ensemble_result.electron_transfers[0, column] == transferred
        assert tuple(ensemble_result.final_electrons[0]) \
            == scalar_result.final_electrons

    def test_duration_budget_matches_scalar_run(self):
        scalar = make_simulator(seed=5)
        batched = make_simulator(seed=5)
        duration = 2e-7
        scalar_result = scalar.run(duration=duration)
        ensemble_result = batched.run_ensemble(replicas=1, duration=duration)
        assert ensemble_result.total_events == scalar_result.event_count
        assert ensemble_result.durations[0] \
            == pytest.approx(scalar_result.duration, rel=1e-12)


class TestEnsembleStatistics:
    def test_replica_spread_agrees_with_block_average_within_3_sigma(self):
        batched = make_simulator(seed=21)
        replica_estimate = batched.stationary_current(
            "J_drain", max_events=48_000, warmup_events=500, replicas=24)
        scalar = make_simulator(seed=22)
        block_estimate = scalar.stationary_current(
            "J_drain", max_events=48_000, warmup_events=500)
        sigma = np.hypot(replica_estimate.stderr, block_estimate.stderr)
        assert abs(replica_estimate.mean - block_estimate.mean) <= 3.0 * sigma
        assert replica_estimate.blocks == 24
        assert replica_estimate.stderr > 0.0

    def test_replica_currents_and_estimate_are_consistent(self):
        simulator = make_simulator(seed=3)
        result = simulator.run_ensemble(replicas=16, max_events=1_000)
        currents = result.replica_currents("J_drain")
        assert currents.shape == (16,)
        estimate = result.current_estimate("J_drain")
        low, high = currents.min(), currents.max()
        assert low <= estimate.mean <= high
        assert estimate.events == result.total_events

    def test_ensemble_runs_are_seed_reproducible(self):
        first = make_simulator(seed=77).run_ensemble(replicas=8,
                                                     max_events=500)
        second = make_simulator(seed=77).run_ensemble(replicas=8,
                                                      max_events=500)
        assert np.array_equal(first.durations, second.durations)
        assert np.array_equal(first.electron_transfers,
                              second.electron_transfers)

    def test_replicas_diverge_from_each_other(self):
        simulator = make_simulator(seed=13)
        result = simulator.run_ensemble(replicas=8, max_events=800)
        # Independent stochastic trajectories: durations must not all agree.
        assert np.unique(result.durations).size > 1

    def test_unknown_junction_is_rejected(self):
        simulator = make_simulator(seed=1)
        result = simulator.run_ensemble(replicas=2, max_events=10)
        from repro.errors import AnalysisError
        with pytest.raises(AnalysisError):
            result.current_estimate("nope")


class TestEnsembleSweeps:
    def test_sweep_source_with_ensemble_replicas(self):
        simulator = make_simulator(seed=31)
        values = [0.02, 0.05, 0.08]
        swept, currents, errors = simulator.sweep_source(
            "VD", values, "J_drain", max_events=6_000, warmup_events=200,
            ensemble=12)
        assert swept.shape == currents.shape == errors.shape == (3,)
        # Higher drain bias must carry more current on the open flank.
        assert currents[2] > currents[0] > 0.0
        assert np.all(errors > 0.0)

    def test_ensemble_sweep_agrees_with_scalar_sweep(self):
        batched = make_simulator(seed=41)
        _, ensemble_currents, ensemble_errors = batched.sweep_source(
            "VD", [0.05], "J_drain", max_events=24_000, warmup_events=500,
            ensemble=12)
        scalar = make_simulator(seed=42)
        _, scalar_currents, scalar_errors = scalar.sweep_source(
            "VD", [0.05], "J_drain", max_events=24_000, warmup_events=500)
        sigma = np.hypot(ensemble_errors[0], scalar_errors[0])
        assert abs(ensemble_currents[0] - scalar_currents[0]) <= 3.0 * sigma

    def test_sweep_restores_bias(self):
        simulator = make_simulator(seed=2)
        before = dict(simulator.circuit.source_voltages())
        simulator.sweep_source("VD", [0.01, 0.09], "J_drain",
                               max_events=500, warmup_events=50, ensemble=4)
        assert dict(simulator.circuit.source_voltages()) == before

    def test_too_few_replicas_rejected(self):
        # R = 1 is a legal (degenerate) ensemble — it replays the scalar
        # path; only R < 1 is nonsensical.
        simulator = make_simulator(seed=2)
        with pytest.raises(SimulationError):
            simulator.sweep_source("VD", [0.05], "J_drain", ensemble=0)
        with pytest.raises(SimulationError):
            simulator.stationary_current("J_drain", replicas=0)

    def test_single_replica_ensemble_matches_scalar_estimate(self):
        # An R = 1 ensemble consumes the random stream exactly like the
        # scalar path, so the ratio-of-sums estimators agree bit for bit
        # (stderr is infinite: one replica carries no spread information).
        ensemble_run = make_simulator(seed=9).stationary_current(
            "J_drain", max_events=2_000, warmup_events=200, replicas=1)
        scalar_run = make_simulator(seed=9).stationary_current(
            "J_drain", max_events=2_000, warmup_events=200)
        assert ensemble_run.mean == scalar_run.mean
        assert ensemble_run.stderr == float("inf")


class TestEnsembleStateAndGuards:
    def test_initial_ensemble_shapes(self):
        simulator = make_simulator()
        ensemble = simulator.new_ensemble(5)
        islands = simulator.kernel.model.island_count
        assert ensemble.replica_count == 5
        assert ensemble.electrons.shape == (5, islands)
        assert ensemble.electron_transfers.shape \
            == (5, len(ensemble.junction_names))
        assert np.all(ensemble.times == 0.0)

    def test_explicit_electron_configurations(self):
        simulator = make_simulator()
        ensemble = simulator.new_ensemble(3, electrons=[1])
        assert np.all(ensemble.electrons == 1)
        per_replica = initial_ensemble(simulator.circuit,
                                       simulator.kernel.model, 2,
                                       electrons=[[0], [2]])
        assert per_replica.electrons[1, 0] == 2
        with pytest.raises(SimulationError):
            simulator.new_ensemble(2, electrons=[[0], [1], [2]])

    def test_zero_replicas_rejected(self):
        simulator = make_simulator()
        with pytest.raises(SimulationError):
            simulator.new_ensemble(0)

    def test_traps_are_rejected(self):
        simulator = make_simulator()
        simulator.circuit.add_charge_trap("trap", island="dot",
                                          coupling=1e-20, capture_time=1e-6,
                                          emission_time=1e-6)
        with pytest.raises(SimulationError):
            simulator.new_ensemble(2)

    def test_replica_state_projection(self):
        simulator = make_simulator(seed=8)
        ensemble = simulator.new_ensemble(3)
        simulator.run_ensemble(ensemble=ensemble, max_events=50)
        state = ensemble.replica_state(1)
        assert state.event_count == int(ensemble.event_counts[1])
        assert state.time == float(ensemble.times[1])
        assert np.array_equal(state.electrons, ensemble.electrons[1])

    def test_copy_is_independent(self):
        simulator = make_simulator(seed=8)
        ensemble = simulator.new_ensemble(2)
        snapshot = ensemble.copy()
        simulator.run_ensemble(ensemble=ensemble, max_events=20)
        assert np.all(snapshot.times == 0.0)
        assert snapshot.cursor is None

    def test_blockaded_ensemble_reports_zero_current(self):
        transistor = SETTransistor(junction_capacitance=1e-18,
                                   gate_capacitance=2e-18,
                                   junction_resistance=1e6)
        circuit = transistor.build_circuit(drain_voltage=0.0,
                                           gate_voltage=0.0)
        simulator = MonteCarloSimulator(circuit, temperature=0.0, seed=1)
        result = simulator.run_ensemble(replicas=4, max_events=100)
        assert result.total_events == 0
        estimate = result.current_estimate("J_drain")
        assert estimate.mean == 0.0 and estimate.blocks == 0

    def test_bias_change_invalidates_cursor(self):
        simulator = make_simulator(seed=4)
        ensemble = simulator.new_ensemble(6)
        simulator.run_ensemble(ensemble=ensemble, max_events=100)
        stale_epoch = ensemble.cursor.epoch
        simulator.circuit.set_source_voltage("VD", 0.08)
        result = simulator.run_ensemble(ensemble=ensemble, max_events=0)
        assert np.all(result.event_counts == 0)
        cursor = ensemble.cursor
        assert cursor.epoch == simulator.kernel._cache_epoch != stale_epoch
        # Every replica's escape rate is the new bias point's.
        for replica in range(6):
            _, rates = StepLoop(simulator.kernel).candidate_rates(
                ensemble.replica_state(replica))
            assert cursor.totals[cursor.slots[replica]] == \
                pytest.approx(rates.sum(), rel=1e-12)

    def test_external_electron_mutation_is_detected(self):
        # EnsembleState.electrons is a public attribute; editing it between
        # runs must re-key the cursor instead of silently running replicas
        # with the rate tables of their old configurations (a run writes
        # the cursor's configurations back, so a stale cursor would undo
        # the edit).
        simulator = make_simulator(seed=6)
        ensemble = simulator.new_ensemble(4)
        simulator.run_ensemble(ensemble=ensemble, max_events=200)
        ensemble.electrons[0] += 3
        edited = ensemble.electrons.copy()
        simulator.run_ensemble(ensemble=ensemble, max_events=0)
        cursor = ensemble.cursor
        assert np.array_equal(ensemble.electrons, edited)
        assert np.array_equal(cursor.configurations[cursor.slots], edited)

    def test_budget_requires_at_least_one_limit(self):
        simulator = make_simulator()
        with pytest.raises(SimulationError):
            simulator.run_ensemble(replicas=2)
        with pytest.raises(SimulationError):
            simulator.run_ensemble(max_events=10)
