"""Tests for the compiled Monte-Carlo advance kernel (:mod:`repro.montecarlo.jit`).

The advance loop is only trustworthy if it is *provably* the same
simulation: a seeded run must replay the per-event step loop (the oracle
``tests/montecarlo/reference_kernel.StepLoop``) event for event — same waiting times, same executed events, same
transfers — not merely agree statistically.  These tests pin that
equivalence on the active backend and on the always-available interpreted
loop, plus the cache-epoch machinery that keeps runs honest when the bias
or offset charge changes mid-session.
"""

import os

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.devices.set_transistor import ISLAND
from repro.errors import SimulationError
from repro.montecarlo import (
    MonteCarloKernel,
    MonteCarloSimulator,
    OccupationStatistics,
)
from repro.montecarlo.jit import (
    BACKEND_CC,
    BACKEND_NUMBA,
    BACKEND_PYTHON,
    jit_backend,
    jit_compiled,
    resolve_advance,
)

from ..conftest import stepped_sweep
from .reference_kernel import StepLoop

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04


def make_simulator(seed=11, drain_voltage=DRAIN_VOLTAGE, **kwargs):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=drain_voltage,
                                       gate_voltage=GATE_VOLTAGE)
    return MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=seed,
                               **kwargs)


def assert_identical_trajectories(advanced, stepped):
    """Bitwise comparison of two :class:`TrajectoryResult` runs."""
    assert advanced.event_count == stepped.event_count
    assert advanced.duration == stepped.duration
    assert advanced.final_electrons == stepped.final_electrons
    assert advanced.electron_transfers == stepped.electron_transfers


def stepped_run(seed, **budget):
    """A seeded run on the step-loop oracle."""
    return StepLoop(make_simulator(seed=seed).kernel).run(**budget)


class TestBackendResolution:
    def test_a_backend_always_resolves(self):
        name, advance = resolve_advance()
        assert callable(advance)
        assert name in (BACKEND_NUMBA, BACKEND_CC, BACKEND_PYTHON)
        assert jit_backend() == name
        assert jit_compiled() == (name != BACKEND_PYTHON)

    @pytest.mark.skipif(
        os.environ.get("REPRO_JIT_BACKEND") == BACKEND_PYTHON,
        reason="backend pinned to the interpreted fallback via environment")
    def test_a_native_backend_is_available_here(self):
        # numba or a C compiler: either way the compiled engines must be
        # able to declare themselves available in this environment.
        assert jit_compiled()

    def test_the_interpreted_fallback_always_loads(self):
        name, advance = resolve_advance(BACKEND_PYTHON)
        assert name == BACKEND_PYTHON
        assert callable(advance)

    def test_unknown_backend_is_rejected_with_the_known_set(self):
        with pytest.raises(SimulationError, match="python"):
            resolve_advance("fortran")

    def test_environment_pin_wins(self, python_backend):
        assert jit_backend() == BACKEND_PYTHON
        assert not jit_compiled()


class TestEventForEventReplay:
    def test_advance_loop_replays_the_step_loop(self):
        advanced = make_simulator(seed=42).run(max_events=5_000)
        assert_identical_trajectories(advanced,
                                      stepped_run(42, max_events=5_000))

    def test_duration_budget_and_censoring_replay(self):
        # A wall-clock budget exercises the censoring branch (waiting times
        # beyond the remaining window advance time without an event); the
        # advance loop must censor at exactly the same events.
        probe = make_simulator(seed=7).run(max_events=2_000)
        window = 0.5 * probe.duration
        advanced = make_simulator(seed=7).run(duration=window)
        assert_identical_trajectories(advanced,
                                      stepped_run(7, duration=window))

    def test_interpreted_loop_replays_too(self, python_backend):
        simulator = make_simulator(seed=13)
        assert simulator.kernel.jit_backend == BACKEND_PYTHON
        assert_identical_trajectories(simulator.run(max_events=1_500),
                                      stepped_run(13, max_events=1_500))

    def test_stationary_current_is_bit_identical(self):
        advanced = make_simulator(seed=3).stationary_current(
            "J_drain", max_events=4_000, warmup_events=400)
        currents, stderrs = stepped_sweep(
            make_simulator(seed=3), "VG", [GATE_VOLTAGE], "J_drain",
            max_events=4_000, warmup_events=400)
        assert advanced.mean == currents[0]
        assert advanced.stderr == stderrs[0]

    def test_recorded_runs_replay_the_step_loop(self):
        # Event records and dwell times come from the advance loop's event
        # log: same seed, same trajectory, and the records and the dwell
        # dict equal the step loop's, event for event.
        occupation = OccupationStatistics()
        expected = OccupationStatistics()
        recorded = make_simulator(seed=5).run(
            max_events=300, record_events=True, occupation=occupation)
        stepped = StepLoop(make_simulator(seed=5).kernel).run(
            max_events=300, record_events=True, occupation=expected)
        plain = make_simulator(seed=5).run(max_events=300)
        assert len(recorded.records) == recorded.event_count == 300
        assert plain.records == []
        assert recorded.records == stepped.records
        assert list(occupation.dwell_times.items()) == \
            list(expected.dwell_times.items())
        assert_identical_trajectories(plain, recorded)
        assert_identical_trajectories(recorded, stepped)


class TestEnsembleRuns:
    def test_r1_ensemble_replays_the_stepped_trajectory(self):
        batched = make_simulator(seed=21).run_ensemble(
            replicas=1, max_events=2_000)
        stepped = stepped_run(21, max_events=2_000)
        assert int(batched.event_counts[0]) == stepped.event_count
        assert float(batched.durations[0]) == stepped.duration
        for column, junction in enumerate(batched.junction_names):
            assert batched.electron_transfers[0, column] == \
                stepped.electron_transfers[junction]
        assert tuple(batched.final_electrons[0]) == stepped.final_electrons

    def test_many_replicas_agree_with_the_scalar_estimator(self):
        # R > 1 runs the replicas one after another, a different use of
        # the random stream than one trajectory, so the proof is
        # statistical: combined 3-sigma agreement with the block-averaged
        # estimate.
        batched = make_simulator(seed=23).stationary_current(
            "J_drain", max_events=4_000, warmup_events=400, replicas=8)
        scalar = make_simulator(seed=29).stationary_current(
            "J_drain", max_events=24_000, warmup_events=800)
        sigma = np.hypot(batched.stderr, scalar.stderr)
        assert abs(batched.mean - scalar.mean) <= 3.0 * sigma

    def test_replica_event_budgets_are_per_replica(self):
        result = make_simulator(seed=31).run_ensemble(
            replicas=4, max_events=500)
        assert result.event_counts.shape == (4,)
        assert np.all(result.event_counts == 500)


class TestCacheEpochInvalidation:
    def test_bias_change_is_picked_up_mid_session(self):
        # Warm rate tables at one drain bias, then move the bias: the
        # advance loop must rebuild its tables (fresh cache epoch) and
        # agree with an independent run at the new bias.
        simulator = make_simulator(seed=17)
        before = simulator.stationary_current("J_drain", max_events=4_000,
                                              warmup_events=400)
        simulator.circuit.set_source_voltage("VD", 0.15)
        after = simulator.stationary_current("J_drain", max_events=8_000,
                                             warmup_events=400)
        reference = make_simulator(seed=19, drain_voltage=0.15).\
            stationary_current("J_drain", max_events=24_000,
                               warmup_events=800)
        sigma = np.hypot(after.stderr, reference.stderr)
        assert abs(after.mean - reference.mean) <= 3.0 * sigma
        # ... and the new bias genuinely changed the answer, so the
        # agreement above is not vacuous.
        assert abs(after.mean - before.mean) > 10.0 * sigma

    def test_offset_charge_change_is_picked_up_mid_session(self):
        # Half an electron of island offset moves the conduction peak into
        # blockade; a session that kept stale tables would keep
        # conducting at the old level.
        simulator = make_simulator(seed=37)
        on_peak = simulator.stationary_current("J_drain", max_events=4_000,
                                               warmup_events=400)
        simulator.circuit.set_offset_charge(ISLAND, 0.5 * E_CHARGE)
        shifted = simulator.stationary_current("J_drain", max_events=4_000,
                                               warmup_events=400)
        # Stale tables would leave the two estimates statistically
        # indistinguishable; the genuine half-electron shift moves the
        # current far outside the combined error bars.
        sigma = np.hypot(shifted.stderr, on_peak.stderr)
        assert abs(shifted.mean - on_peak.mean) > 5.0 * sigma

    def test_stale_bias_tables_would_visibly_corrupt_the_current(self,
                                                                 monkeypatch):
        # Regression guard on the invalidation machinery itself: disable
        # the bias refresh and show the current stays pinned to
        # the old operating point — a visible, physical error.  If this
        # test ever starts failing, the epoch checks above have gone
        # vacuous.
        simulator = make_simulator(seed=17)
        stale = simulator.stationary_current("J_drain", max_events=4_000,
                                             warmup_events=400)
        monkeypatch.setattr(simulator.kernel, "_refresh_bias",
                            lambda: None)
        simulator.circuit.set_source_voltage("VD", 0.15)
        frozen = simulator.stationary_current("J_drain", max_events=8_000,
                                              warmup_events=400)
        reference = make_simulator(seed=19, drain_voltage=0.15).\
            stationary_current("J_drain", max_events=24_000,
                               warmup_events=800)
        # The broken session tracks the OLD bias, far from the new truth.
        sigma = np.hypot(frozen.stderr, reference.stderr)
        assert abs(frozen.mean - reference.mean) > 10.0 * sigma
        assert abs(frozen.mean - stale.mean) <= \
            10.0 * np.hypot(frozen.stderr, stale.stderr)


class TestSimulatorRouting:
    def test_plain_runs_go_through_the_advance_loop(self, monkeypatch):
        simulator = make_simulator(seed=2)
        calls = []
        original = simulator.kernel.run_phases
        monkeypatch.setattr(
            simulator.kernel, "run_phases",
            lambda *args, **kwargs: calls.append(1) or
            original(*args, **kwargs))
        simulator.run(max_events=200)
        simulator.run_ensemble(replicas=2, max_events=50)
        simulator.stationary_current("J_drain", max_events=200,
                                     warmup_events=20)
        simulator.sweep_source("VG", [0.0, 0.04], "J_drain", max_events=200,
                               warmup_events=20)
        # A serial sweep is one run over its points.
        assert len(calls) == 4

    def test_hooked_and_trapped_runs_enter_the_advance_loop(self,
                                                            monkeypatch):
        # One event loop: records, occupation statistics and charge traps
        # all run through run_phases, and the kernel has no step path.
        simulator = make_simulator(seed=2)
        trapped = make_simulator(seed=2)
        trapped.circuit.add_charge_trap("T1", ISLAND, 0.2 * E_CHARGE,
                                        capture_time=1e-10,
                                        emission_time=1e-10)
        trapped = MonteCarloSimulator(trapped.circuit, TEMPERATURE, seed=2)
        calls = []
        for kernel in (simulator.kernel, trapped.kernel):
            original = kernel.run_phases
            monkeypatch.setattr(
                kernel, "run_phases",
                lambda *args, run=original, **kwargs: calls.append(1) or
                run(*args, **kwargs))
        assert simulator.run(max_events=200,
                             record_events=True).event_count == 200
        assert simulator.run(max_events=200, occupation=OccupationStatistics()
                             ).event_count == 200
        assert trapped.run(max_events=200).trap_flips > 0
        assert len(calls) == 3
        assert not hasattr(MonteCarloKernel, "step")
