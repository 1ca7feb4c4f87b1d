"""The shared chunk executor and its one chunk-failure contract.

``run_chunks`` runs design scans, checkpointed sweeps and the ``workers=N``
fan-outs of the master-equation and Monte-Carlo sweeps.  These tests cover
what the callers' own suites do not: a pool that cannot dispatch, a pool
worker killed mid-run under every caller, degradation evidence coming back
from pool workers, a scan that loses every chunk, and a checkpointed sweep
that loses a chunk under a policy.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from repro.design import UNKNOWN, DeviceScan
from repro.devices import SETTransistor
from repro.devices.set_transistor import DRAIN_JUNCTION, GATE_SOURCE
from repro.engines import SweepAxes, get_engine
from repro.io.results import ResultCache
from repro.master import steadystate
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import jit_compiled
from repro.resilience import (
    CheckpointedSweep,
    FailurePolicy,
    FaultInjector,
    STATUS_DEGRADED,
    STATUS_SKIPPED,
    chunks,
)
from repro.resilience.chunks import ChunkCounts, run_chunks
from repro.resilience.events import capture_degradations

from ..design.conftest import make_spec
from ..design.test_scan import comparable
from .test_worker_digests import PINNED_DIGESTS, digest, seeded_sweep

#: The test process; forked pool workers see a different pid.
_PARENT = os.getpid()
_ORIGINAL_ATTEMPT = chunks._attempt


@dataclass(frozen=True)
class _Chunk:
    index: int
    key: str


def _square(chunk):
    """A picklable toy compute: one payload per chunk."""
    return {"value": chunk.index ** 2}


def _crash_worker_on_chunk_one(compute, chunk):
    """The pool's entry point, killing the worker process on chunk 1."""
    if chunk.index == 1 and os.getpid() != _PARENT:
        os._exit(1)
    return _ORIGINAL_ATTEMPT(compute, chunk)


def _always_valid(chunk, payload):
    return True


def plan(count):
    return [_Chunk(index, f"{index:064x}") for index in range(count)]


@pytest.fixture
def fork_pool(monkeypatch):
    """Run the executor's pool on the fork start method."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(chunks, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


class TestPoolDispatch:
    def test_dispatch_error_under_policy_recovers_serially(self):
        # A lambda cannot be pickled to a worker: the pool fails, not the
        # chunks, so every chunk is recomputed in-process and none is lost.
        counts = ChunkCounts()
        payloads = run_chunks(plan(3), lambda chunk: _square(chunk),
                              _always_valid, cache=None,
                              policy=FailurePolicy(), workers=2,
                              counts=counts)
        assert [p["value"] for p in payloads] == [0, 1, 4]
        assert (counts.chunks_computed, counts.chunks_failed) == (3, 0)

    def test_dispatch_error_without_policy_propagates(self):
        with pytest.raises(Exception):
            run_chunks(plan(3), lambda chunk: _square(chunk), _always_valid,
                       cache=None, policy=None, workers=2,
                       counts=ChunkCounts())


class TestCrashedWorker:
    """A worker killed mid-scan must not take healthy chunks down with it."""

    def test_policy_recovers_the_crashed_chunk_serially(
            self, fork_pool, monkeypatch, tmp_path):
        spec = make_spec()
        policy = FailurePolicy.lenient()
        clean = comparable(DeviceScan(spec, policy=policy).run())
        monkeypatch.setattr(chunks, "_attempt", _crash_worker_on_chunk_one)
        cache = ResultCache(tmp_path)
        scan = DeviceScan(spec, cache=cache, policy=policy)
        recovered = scan.run(workers=2)
        assert scan.chunks_failed == 0
        assert scan.chunks_computed == 3
        assert not recovered.is_partial
        assert comparable(recovered) == clean
        replay = DeviceScan(spec, cache=cache, policy=policy)
        replay.run(workers=2)
        assert replay.chunks_resumed == 3

    def test_without_policy_the_broken_pool_propagates(
            self, fork_pool, monkeypatch, tmp_path):
        spec = make_spec()
        clean = comparable(DeviceScan(spec).run())
        monkeypatch.setattr(chunks, "_attempt", _crash_worker_on_chunk_one)
        cache = ResultCache(tmp_path)
        scan = DeviceScan(spec, cache=cache)
        with pytest.raises(BrokenProcessPool):
            scan.run(workers=2)
        assert scan.chunks_failed == 0
        assert scan.chunks_computed <= 1
        monkeypatch.setattr(chunks, "_attempt", _ORIGINAL_ATTEMPT)
        resumer = DeviceScan(spec, cache=cache)
        assert comparable(resumer.run(workers=2)) == clean
        assert resumer.chunks_resumed == scan.chunks_computed


def _gates(device, count):
    return np.linspace(0.0, device.gate_period, count)


def _reducible_master_sweep():
    """A cold master session and an axis whose gate-0 points are reducible.

    At T = 0 and a -60 mV drain this offset puts the source junction of
    the default SET exactly at degeneracy at gate 0 (see
    test_chaos_design): the chain is reducible there, so the session hands
    those points, and only those, to its solver's ``workers=N`` fan-out,
    whose conducting class {1, 2} factorises a generator block.
    """
    device = SETTransistor(background_charge=1.401088317e-19)
    session = get_engine("master").bind(device, temperature=0.0)
    return session, SweepAxes([0.0, 0.01, 0.0, 0.02, 0.0], -0.06)


def _design_scan(device):
    DeviceScan(make_spec()).run(workers=2)


def _master_sweep(device):
    solver = steadystate.MasterEquationSolver(
        device.build_circuit(drain_voltage=2e-3), temperature=1.0)
    solver.sweep_source(GATE_SOURCE, _gates(device, 4), DRAIN_JUNCTION,
                        workers=2)


def _montecarlo_sweep(device):
    simulator = MonteCarloSimulator(device.build_circuit(drain_voltage=2e-3),
                                    temperature=1.0, seed=5)
    simulator.sweep_source(GATE_SOURCE, _gates(device, 4), DRAIN_JUNCTION,
                           max_events=100, warmup_events=10, workers=2)


class TestEveryCallerSharesOnePool:
    """Every ``workers=N`` fan-out runs on the one pool and its contract."""

    @pytest.mark.parametrize("run", [_design_scan, _master_sweep,
                                     _montecarlo_sweep])
    def test_without_policy_a_crashed_worker_propagates(
            self, fork_pool, monkeypatch, device, run):
        monkeypatch.setattr(chunks, "_attempt", _crash_worker_on_chunk_one)
        with pytest.raises(BrokenProcessPool):
            run(device)

    def test_policed_session_sweep_recovers_serially_with_one_event(
            self, fork_pool, monkeypatch):
        # The recovered sweep, the clean pool sweep and the serial sweep
        # give the same bits: the worker count never changes a point.
        session, axes = _reducible_master_sweep()
        serial = session.sweep(axes)
        assert np.array_equal(session.sweep(axes, workers=2).currents,
                              serial.currents)
        monkeypatch.setattr(chunks, "_attempt", _crash_worker_on_chunk_one)
        with capture_degradations() as events:
            recovered = session.sweep(axes, workers=2,
                                      policy=FailurePolicy())
        assert np.array_equal(recovered.currents, serial.currents)
        assert [(e.site, e.action) for e in events] == [
            ("executor.pool", "recover:serial")]
        assert {r.status for r in recovered.statuses} == {STATUS_DEGRADED}

    @pytest.mark.parametrize("engine, options", [
        ("montecarlo", {}), ("ensemble", {"replicas": 4})])
    def test_seeded_split_ignores_the_host_cpu_count(
            self, monkeypatch, device, engine, options):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = seeded_sweep(device, engine, **options)
        assert digest(result.currents, result.stderrs) == \
            PINNED_DIGESTS[engine]


class TestWorkerDegradationEvidence:
    """A fallback taken inside a pool worker reaches the parent's policy."""

    def policed_statuses(self, session, axes, site):
        chaos = FaultInjector()
        chaos.arm(site, error=RuntimeError("injected"), times=None)
        with chaos, capture_degradations() as events:
            result = session.sweep(axes, workers=2, policy=FailurePolicy())
        assert site in {event.site for event in events}
        return {record.status for record in result.statuses}

    def test_master_sparse_fallback_in_a_worker_is_degraded(
            self, monkeypatch):
        monkeypatch.setattr(steadystate, "DENSE_STATE_CUTOFF", 0)
        session, axes = _reducible_master_sweep()
        assert self.policed_statuses(session, axes,
                                     "steadystate.splu") == {STATUS_DEGRADED}

    @pytest.mark.skipif(not jit_compiled(),
                        reason="no native jit backend loaded")
    def test_jit_fallback_in_a_worker_is_degraded(self, device):
        session = get_engine("montecarlo").bind(
            device, temperature=1.0, seed=5, max_events=100,
            warmup_events=10)
        axes = SweepAxes(_gates(device, 4), 2e-3)
        assert self.policed_statuses(session, axes,
                                     "jit.run_compiled") == {STATUS_DEGRADED}


class TestEveryChunkLost:
    def test_design_scan_returns_an_all_unknown_partial_map(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(tmp_path)
        policy = FailurePolicy.lenient()
        scan = DeviceScan(spec, cache=cache, policy=policy)
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", times=None)
        with chaos:
            lost = scan.run()
        assert scan.chunks_failed == 3
        assert scan.chunks_computed == 0
        assert lost.is_partial
        assert np.all(lost.verdicts == UNKNOWN)
        assert lost.statuses == ("skipped",) * 9
        assert lost.margins.shape == (3, 9)
        assert np.all(np.isnan(lost.margins))
        healed_scan = DeviceScan(spec, cache=cache, policy=policy)
        healed = healed_scan.run()
        assert healed_scan.chunks_computed == 3
        assert not healed.is_partial
        assert comparable(healed) == comparable(
            DeviceScan(spec, policy=policy).run())


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    gates = np.linspace(0.2, 0.8, 4) * device.gate_period
    return SweepAxes(gates, 2e-3)


@pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
class TestCheckpointChunkLoss:
    def sweep(self, engine, device, axes, cache):
        return CheckpointedSweep(engine, device, axes, cache=cache,
                                 temperature=1.0, seed=123, chunk_size=2,
                                 max_events=300, warmup_events=50,
                                 policy=FailurePolicy.lenient())

    def test_chunk_loss_under_policy_yields_a_partial_resumable_sweep(
            self, engine, device, axes, tmp_path):
        expected = self.sweep(engine, device, axes,
                              ResultCache(tmp_path / "clean")).run()
        cache = ResultCache(tmp_path / "damaged")
        damaged_sweep = self.sweep(engine, device, axes, cache)
        chaos = FaultInjector(seed=3)
        chaos.arm("checkpoint.chunk", after=1, times=1)
        with chaos:
            damaged = damaged_sweep.run()
        # No abort: the second chunk is lost, its points NaN and skipped.
        assert damaged_sweep.chunks_failed == 1
        assert damaged_sweep.chunks_computed == 1
        assert np.array_equal(damaged.currents[:2], expected.currents[:2])
        assert np.all(np.isnan(damaged.currents[2:]))
        assert [r.status for r in damaged.statuses[2:]] == \
            [STATUS_SKIPPED] * 2
        assert [r.index for r in damaged.statuses] == [0, 1, 2, 3]
        if expected.stderrs is None:
            assert damaged.stderrs is None
        else:
            assert np.all(np.isnan(damaged.stderrs[2:]))
        # The lost chunk was never cached: a plain re-run completes the
        # sweep, bit-identical to a never-faulted one.
        healed_sweep = self.sweep(engine, device, axes, cache)
        healed = healed_sweep.run()
        assert healed_sweep.chunks_resumed == 1
        assert healed_sweep.chunks_computed == 1
        assert np.array_equal(healed.currents, expected.currents)
        if expected.stderrs is not None:
            assert np.array_equal(healed.stderrs, expected.stderrs)
        assert healed.statuses == expected.statuses
