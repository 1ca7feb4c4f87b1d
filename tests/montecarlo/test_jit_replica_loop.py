"""Tests for the replica loop of the compiled advance kernel.

Every compiled Monte-Carlo run — one scalar trajectory or an ``R``-replica
ensemble, one phase or a whole estimator schedule (warm-up plus blocks) — is
one call of the backend's replica loop plus the re-entries it genuinely
needs (random block refills, successor links).  These tests pin:

* the seeded sweep outputs of the engines, as SHA-256 digests recorded
  before the replica loop moved into the kernel, on the active backend and
  on the interpreted reference loop (``ensemble-jit`` is the retired name
  of ``ensemble`` and keeps its digest);
* bit-for-bit agreement of ``R > 1`` ensembles between the active backend
  and the interpreted reference loop (event and duration budgets, a
  blockaded device, a mid-session bias change, an ensemble sweep);
* the phased call's edge cases: a T = 0 blockade that begins inside the
  estimate window (empty later blocks), and a re-entry fault that must
  leave every replica at a phase boundary for the interpreted loop to
  resume from;
* the native-entry budget: a sweep is one run — one finishing entry per
  sweep and one root request per plan block opened after the first point
  (one per point after the first inside a fault injector), every other
  entry a refill or a link — a warm ensemble run enters the backend
  fewer times than it has replicas, and a warm scalar run exactly once;
* kernels driven from several threads at once through the shared backend;
* concurrent C builds into one empty cache directory.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.resilience import FaultInjector
from repro.resilience.events import capture_degradations
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import (
    BACKEND_CC,
    BACKEND_PYTHON,
    REG_PHASE,
    REG_REPLICA,
    STATUS_BLOCKED,
    STATUS_DONE,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_ROOTS,
    STATUS_NEED_UNIFORM,
    _find_compiler,
    jit_backend,
    jit_compiled,
)

from ..conftest import interpreted_backend, stepped_sweep

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04

#: SHA-256 of ``currents.tobytes() + stderrs.tobytes()`` of the seeded
#: 129-point sweeps of :func:`pinned_sweep`, recorded with the per-replica
#: Python driver the replica loop replaced (identical on the C and the
#: interpreted backend).
PINNED_DIGESTS = {
    "montecarlo":
        "e8682e66b9c4b12a0d0256a90b33ac7f0f4a8b790363648dc9a3840811cd3e72",
    "ensemble-jit":
        "bf628920c89d62d2cf686f1c940bd804f04cba6931116fed07dc764f97c11e8b",
}


def make_simulator(seed=11, drain_voltage=DRAIN_VOLTAGE,
                   gate_voltage=GATE_VOLTAGE, temperature=TEMPERATURE):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=drain_voltage,
                                       gate_voltage=gate_voltage)
    return MonteCarloSimulator(circuit, temperature=temperature, seed=seed)


PINNED_DEVICE = SETTransistor(junction_capacitance=1e-18,
                              gate_capacitance=2e-18,
                              junction_resistance=1e6)
PINNED_AXES = SweepAxes(
    np.linspace(0.0, 2.0 * PINNED_DEVICE.gate_period, 129),
    0.2 * E_CHARGE / (2 * PINNED_DEVICE.junction_capacitance
                      + PINNED_DEVICE.gate_capacitance))
PINNED_BUDGET = dict(temperature=2.0, seed=2024, max_events=2000,
                     warmup_events=200)


def pinned_sweep(engine, **options):
    """Currents and stderrs of a seeded 129-point Id-Vg sweep, and the
    kernel that ran it."""
    session = get_engine(engine).bind(PINNED_DEVICE, **PINNED_BUDGET,
                                      **options)
    result = session.sweep(PINNED_AXES)
    return (result.currents, result.stderrs), session.simulator.kernel


def digest(arrays):
    currents, stderrs = arrays
    return hashlib.sha256(currents.tobytes() + stderrs.tobytes()).hexdigest()


def assert_identical_ensembles(native, reference):
    """Bitwise comparison of two :class:`EnsembleResult` runs."""
    np.testing.assert_array_equal(native.durations, reference.durations)
    np.testing.assert_array_equal(native.event_counts, reference.event_counts)
    np.testing.assert_array_equal(native.electron_transfers,
                                  reference.electron_transfers)
    np.testing.assert_array_equal(native.final_electrons,
                                  reference.final_electrons)


#: (engine name, bind options, key of :data:`PINNED_DIGESTS`).
PINNED_SWEEPS = [("montecarlo", {}, "montecarlo"),
                 ("ensemble-jit", {"replicas": 16}, "ensemble-jit"),
                 ("ensemble", {"replicas": 16}, "ensemble-jit")]


class TestPinnedSweepDigests:
    @pytest.mark.parametrize("engine, options, key", PINNED_SWEEPS)
    def test_active_backend_reproduces_the_pinned_sweep(self, engine,
                                                        options, key):
        arrays, _ = pinned_sweep(engine, **options)
        assert digest(arrays) == PINNED_DIGESTS[key]

    @pytest.mark.parametrize("engine, options, key", PINNED_SWEEPS)
    def test_interpreted_loop_reproduces_the_pinned_sweep(
            self, engine, options, key, python_backend):
        assert jit_backend() == BACKEND_PYTHON
        arrays, kernel = pinned_sweep(engine, **options)
        assert kernel.jit_backend == BACKEND_PYTHON
        assert digest(arrays) == PINNED_DIGESTS[key]


def run_on_both_backends(run, **simulator_options):
    """``run(simulator)`` on the active backend and on the reference loop.

    The native simulator is built first; the reference one is built with
    the interpreted backend switched on, and keeps it.
    """
    native = make_simulator(**simulator_options)
    with interpreted_backend():
        reference = make_simulator(**simulator_options)
    assert reference.kernel.jit_backend == BACKEND_PYTHON
    return run(native), run(reference)


class TestReplicaLoopMatchesTheReference:
    def test_event_budgets(self):
        def run(simulator):
            ensemble = simulator.new_ensemble(8)
            first = simulator.run_ensemble(max_events=700, ensemble=ensemble)
            second = simulator.run_ensemble(max_events=1_300,
                                            ensemble=ensemble)
            return first, second

        native, reference = run_on_both_backends(run, seed=51)
        for native_run, reference_run in zip(native, reference):
            assert_identical_ensembles(native_run, reference_run)
        assert np.all(native[1].event_counts == 1_300)

    def test_duration_budgets_censor_identically(self):
        window = 0.5 * make_simulator(seed=53).run_ensemble(
            replicas=8, max_events=1_000).durations.mean()

        def run(simulator):
            # The second window starts from each replica's own clock.
            ensemble = simulator.new_ensemble(8)
            return [simulator.run_ensemble(duration=window, ensemble=ensemble)
                    for _ in range(2)]

        native, reference = run_on_both_backends(run, seed=53)
        for native_run, reference_run in zip(native, reference):
            assert_identical_ensembles(native_run, reference_run)
            # Every replica stopped on the clock, not on an event budget.
            np.testing.assert_array_equal(native_run.durations >= window,
                                          True)
            assert native_run.event_counts.min() > 0

    @pytest.mark.parametrize("budget", [{"max_events": 500},
                                        {"duration": 1e-6}])
    def test_blockaded_device_at_zero_temperature(self, budget):
        def run(simulator):
            return simulator.run_ensemble(replicas=4, **budget)

        native, reference = run_on_both_backends(
            run, seed=55, temperature=0.0, drain_voltage=0.002,
            gate_voltage=0.0)
        assert_identical_ensembles(native, reference)
        np.testing.assert_array_equal(native.event_counts, 0)

    def test_bias_change_mid_session(self):
        def run(simulator):
            ensemble = simulator.new_ensemble(6)
            before = simulator.run_ensemble(max_events=800,
                                            ensemble=ensemble)
            simulator.circuit.set_source_voltage("VD", 0.15)
            after = simulator.run_ensemble(max_events=800, ensemble=ensemble)
            return before, after

        native, reference = run_on_both_backends(run, seed=57)
        for native_run, reference_run in zip(native, reference):
            assert_identical_ensembles(native_run, reference_run)
        assert not np.array_equal(native[0].electron_transfers,
                                  native[1].electron_transfers)

    def test_ensemble_sweep(self):
        gates = np.linspace(0.0, 0.08, 9)

        def run(simulator):
            return simulator.sweep_source("VG", gates, "J_drain",
                                          max_events=1_600, warmup_events=160,
                                          ensemble=16)

        native, reference = run_on_both_backends(run, seed=59)
        for native_array, reference_array in zip(native, reference):
            np.testing.assert_array_equal(native_array, reference_array)


def fail_after_refills(kernel, refills):
    """Make the kernel's replica loop raise on re-entry after ``refills`` refills.

    Returns a list that receives the ``(phase, replica)`` registers the
    loop held when the fault struck.
    """
    advance = kernel._jit_advance
    seen = []
    struck = []

    def flaky(*arguments):
        if len(seen) >= refills:
            ireg = kernel._ireg
            struck.append((int(ireg[REG_PHASE]), int(ireg[REG_REPLICA])))
            raise RuntimeError("injected re-entry fault")
        status = advance(*arguments)
        if status in (STATUS_NEED_EXP, STATUS_NEED_UNIFORM):
            seen.append(status)
        return status

    kernel._jit_advance = flaky
    return struck


def assert_consistent_phases(kernel, record, replica, initial_electrons,
                             final_electrons):
    """Every phase's tallies are those of its own events, counted once."""
    phase_events = np.diff(record.counts[:, replica])
    np.testing.assert_array_equal(phase_events, record.schedule)
    # One event moves one electron through one junction, so the net
    # per-junction tallies of a phase can never exceed its event count.
    phase_transfers = np.diff(record.transfers[:, replica], axis=0)
    assert np.all(np.abs(phase_transfers).sum(axis=1) <= phase_events)
    # The island charge moved exactly as the junction tallies say.
    tally_to_islands = np.linalg.lstsq(
        kernel._transfer_matrix,
        np.vstack(kernel._event_delta_n).astype(float), rcond=None)[0]
    moved = (record.transfers[-1, replica] - record.transfers[0, replica]) \
        @ tally_to_islands
    np.testing.assert_array_equal(np.rint(moved).astype(np.int64),
                                  final_electrons - initial_electrons)


#: Faults of a native backend; the interpreted loop has no fallback.
NATIVE_ONLY = pytest.mark.skipif(not jit_compiled(),
                                 reason="no native jit backend loaded")


class TestPhasedCall:
    """Edge cases of running a whole phase schedule in one native call."""

    #: At T = 0 and 2 mV drain bias the island sits in blockade at both gate
    #: values; each gate step leaves it two electrons away from its new
    #: ground state, so a point with no warm-up relaxes in its first two
    #: events and every later block of the estimate window is empty.
    BLOCKADE_GATES = [0.0, 0.18, 0.0, 0.18, 0.18, 0.0]

    def blockade_simulator(self):
        return make_simulator(seed=5, temperature=0.0, drain_voltage=0.002,
                              gate_voltage=0.0)

    def test_the_blockade_begins_inside_the_estimate_window(self):
        simulator = self.blockade_simulator()
        state = simulator.new_state()
        simulator.circuit.set_source_voltage("VG", 0.18)
        result = simulator.run(max_events=10, state=state)
        assert 0 < result.event_count < 10
        assert simulator.run(max_events=10, state=state).event_count == 0

    @pytest.mark.parametrize("ensemble", [None, 2])
    def test_blockade_inside_the_window_is_bit_identical(self, ensemble):
        def sweep(simulator):
            _, currents, stderrs = simulator.sweep_source(
                "VG", self.BLOCKADE_GATES, "J_drain", max_events=10,
                warmup_events=0, ensemble=ensemble)
            return currents.tobytes() + stderrs.tobytes()

        native, interpreted = run_on_both_backends(
            sweep, seed=5, temperature=0.0, drain_voltage=0.002,
            gate_voltage=0.0)
        assert native == interpreted
        if ensemble is None:
            # The scalar estimator's step loop replays it too.
            currents, stderrs = stepped_sweep(
                self.blockade_simulator(), "VG", self.BLOCKADE_GATES,
                "J_drain", max_events=10, warmup_events=0)
            assert native == currents.tobytes() + stderrs.tobytes()

    @NATIVE_ONLY
    def test_reentry_fault_resumes_a_trajectory_at_a_phase_boundary(self):
        simulator = make_simulator(seed=65)
        state = simulator.new_state()
        initial = state.electrons.copy()
        struck = fail_after_refills(simulator.kernel, 4)
        with capture_degradations() as events:
            record = simulator._run_phases(state, [3_000, 3_000, 3_000])
        # The fault struck in the second phase; the interpreted loop
        # resumed at its start and finished the schedule.
        assert struck == [(1, 0)]
        assert record.phase == 3
        assert [event.action for event in events] == ["fallback:python"]
        assert simulator.kernel.jit_backend == BACKEND_PYTHON
        assert state.event_count == 9_000
        assert_consistent_phases(simulator.kernel, record, 0, initial,
                                 state.electrons)

    @NATIVE_ONLY
    def test_reentry_fault_resumes_every_replica_at_a_phase_boundary(self):
        simulator = make_simulator(seed=67)
        ensemble = simulator.new_ensemble(4)
        initial = ensemble.electrons.copy()
        struck = fail_after_refills(simulator.kernel, 5)
        with capture_degradations() as events:
            record = simulator._run_phases(ensemble, [1_500, 1_500])
        # The fault struck in the window phase after some replicas had
        # finished it natively.
        [(phase, replica)] = struck
        assert phase == 1 and replica >= 1
        assert (record.phase, record.replica) == (2, 0)
        assert [event.action for event in events] == ["fallback:python"]
        np.testing.assert_array_equal(ensemble.event_counts, 3_000)
        for replica in range(4):
            assert_consistent_phases(simulator.kernel, record, replica,
                                     initial[replica],
                                     ensemble.electrons[replica])


def count_native_entries(simulator):
    """Wrap the kernel's replica loop; the returned list grows per entry."""
    kernel = simulator.kernel
    advance = kernel._jit_advance
    entries = []

    def counted(*arguments):
        entries.append(1)
        return advance(*arguments)

    kernel._jit_advance = counted
    return entries


def count_native_statuses(kernel):
    """Wrap the kernel's replica loop; the returned list grows per status."""
    advance = kernel._jit_advance
    statuses = []

    def counted(*arguments):
        status = advance(*arguments)
        statuses.append(status)
        return status

    kernel._jit_advance = counted
    return statuses


def assert_one_run_per_sweep(engine, options, points=33):
    """A warm-started sweep is one run of the loop over all its points.

    One entry finishes the sweep and every other entry is a refill, a link
    or a root request.  The loop roots a point from the sweep plan itself,
    so Python answers a root request only where a root has no plan block
    yet: the requests equal the blocks the sweep opens after its first
    point.  Inside a fault injector (unarmed) Python answers every point
    after the first, so the ``jit.run_compiled`` site fires once per point.
    """
    device = SETTransistor(junction_capacitance=1e-18,
                           gate_capacitance=2e-18, junction_resistance=1e6)
    axes = SweepAxes(np.linspace(0.0, device.gate_period, points), 0.02)

    def statuses_and_blocks():
        session = get_engine(engine).bind(device, temperature=2.0, seed=31,
                                          max_events=1_000,
                                          warmup_events=100, **options)
        kernel = session.simulator.kernel
        statuses = count_native_statuses(kernel)
        plan_block = kernel._plan_block
        block_starts = []

        def recorded(plan, point, electrons, keys):
            block_starts.append(point)
            return plan_block(plan, point, electrons, keys)

        kernel._plan_block = recorded
        session.sweep(axes)
        finishing = [status for status in statuses
                     if status in (STATUS_DONE, STATUS_BLOCKED)]
        assert finishing == [STATUS_DONE] == statuses[-1:]
        assert set(statuses) - {STATUS_DONE, STATUS_NEED_ROOTS} <= {
            STATUS_NEED_EXP, STATUS_NEED_UNIFORM, STATUS_NEED_LINK}
        return statuses.count(STATUS_NEED_ROOTS), block_starts

    requests, block_starts = statuses_and_blocks()
    assert requests == sum(start > 0 for start in block_starts)
    with FaultInjector():
        requests, _ = statuses_and_blocks()
    assert requests == points - 1


SWEEP_ENGINES = [("montecarlo", {}), ("ensemble", {"replicas": 8})]


class TestNativeEntryBudget:
    @pytest.mark.parametrize("engine, options", SWEEP_ENGINES)
    def test_sweep_is_one_run_with_a_root_request_per_plan_block(
            self, engine, options):
        assert_one_run_per_sweep(engine, options)

    @pytest.mark.parametrize("engine, options", SWEEP_ENGINES)
    def test_sweep_is_one_run_on_the_interpreted_loop(
            self, engine, options, python_backend):
        assert jit_backend() == BACKEND_PYTHON
        assert_one_run_per_sweep(engine, options)

    def test_warm_ensemble_run_enters_fewer_times_than_replicas(self):
        simulator = make_simulator(seed=61)
        ensemble = simulator.new_ensemble(16)
        simulator.run_ensemble(max_events=300, ensemble=ensemble)
        entries = count_native_entries(simulator)
        result = simulator.run_ensemble(max_events=100, ensemble=ensemble)
        assert result.total_events == 16 * 100
        assert 1 <= len(entries) < 16

    def test_warm_scalar_run_enters_exactly_once(self):
        simulator = make_simulator(seed=63)
        state = simulator.new_state()
        simulator.run(max_events=1_000, state=state)
        entries = count_native_entries(simulator)
        assert simulator.run(max_events=200, state=state).event_count == 200
        assert len(entries) == 1


def test_threads_sharing_the_backend_keep_their_own_arrays():
    # Kernels driven from several threads at once (the foreign call
    # releases the interpreter lock) must each advance their own arrays.
    # Every kernel owns its loop arguments — registers, cursor mirrors,
    # phase records, plan mirror, and the address block the C entry reads
    # them through — so eight threads sweeping at once must give the
    # sweeps each gives alone; arguments shared across kernels would mix
    # them up (or crash) here.
    gates = np.linspace(0.0, 0.08, 100)
    seeds = range(71, 79)

    def sweep(seed):
        return make_simulator(seed=seed).sweep_source(
            "VG", gates, "J_drain", max_events=200, warmup_events=20)

    expected = [sweep(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            concurrent = list(pool.map(sweep, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for alone, together in zip(expected, concurrent):
        for alone_array, together_array in zip(alone, together):
            np.testing.assert_array_equal(alone_array, together_array)


@pytest.mark.skipif(_find_compiler() is None, reason="no C compiler")
def test_concurrent_c_builds_share_one_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    start = tmp_path / "start"
    script = textwrap.dedent(f"""
        import time
        from pathlib import Path
        from repro.montecarlo.jit import resolve_advance
        while not Path({str(start)!r}).exists():
            time.sleep(0.005)
        print(resolve_advance({BACKEND_CC!r})[0])
    """)
    source_root = Path(__file__).resolve().parents[2] / "src"
    environment = dict(os.environ, REPRO_JIT_CACHE_DIR=str(cache),
                       PYTHONPATH=str(source_root))
    builds = [subprocess.Popen([sys.executable, "-c", script],
                               env=environment, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
              for _ in range(2)]
    start.touch()
    outputs = [build.communicate(timeout=300) for build in builds]
    for build, (stdout, stderr) in zip(builds, outputs):
        assert build.returncode == 0, stderr
        assert stdout.strip() == BACKEND_CC
    libraries = list(cache.iterdir())
    assert len(libraries) == 1
    assert libraries[0].name.startswith("mc_advance_")
    assert libraries[0].suffix == ".so"
