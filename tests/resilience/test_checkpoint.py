"""Tests for checkpointed, resumable sweeps (crash/resume bit-identity)."""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import ENGINE_ALIASES, SweepAxes, engine_names
from repro.errors import CheckpointError, FaultInjected
from repro.io.results import ResultCache, derive_seed
from repro.resilience import (
    CheckpointedSweep,
    FailurePolicy,
    FaultInjector,
    run_checkpointed_sweep,
)

DRAIN_VOLTAGE = 2e-3
#: Small stochastic budgets keep the cross-engine matrix fast.
SWEEP_KWARGS = dict(temperature=1.0, seed=123, chunk_size=2,
                    max_events=300, warmup_events=50, replicas=2)


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    gates = np.linspace(0.2, 0.8, 4) * device.gate_period
    return SweepAxes(gates, DRAIN_VOLTAGE)


def checkpointed(engine, device, axes, cache, **overrides):
    kwargs = dict(SWEEP_KWARGS)
    kwargs.update(overrides)
    return CheckpointedSweep(engine, device, axes, cache=cache, **kwargs)


def assert_results_identical(reference, resumed):
    assert np.array_equal(reference.currents, resumed.currents)
    if reference.stderrs is None:
        assert resumed.stderrs is None
    else:
        np.testing.assert_array_equal(reference.stderrs, resumed.stderrs)
    assert reference.engine == resumed.engine


class TestDerivedSeeds:
    def test_none_root_seed_stays_none(self, device, axes, tmp_path):
        sweep = checkpointed("analytic", device, axes,
                             ResultCache(tmp_path), seed=None)
        assert [chunk.seed for chunk in sweep.chunk_plan()] == [None, None]

    def test_deterministic_and_start_dependent(self):
        assert derive_seed(123, 0) == derive_seed(123, 0)
        assert derive_seed(123, 0) != derive_seed(123, 2)
        assert derive_seed(123, 0) != derive_seed(124, 0)

    def test_fits_in_32_bits(self):
        for start in range(0, 64, 8):
            seed = derive_seed(99, start)
            assert 0 <= seed < 2 ** 32


class TestChunkPlan:
    def test_geometry_and_keys(self, device, axes, tmp_path):
        sweep = checkpointed("analytic", device, axes,
                             ResultCache(tmp_path))
        plan = sweep.chunk_plan()
        assert [chunk.start for chunk in plan] == [0, 2]
        assert [len(chunk.axes) for chunk in plan] == [2, 2]
        assert len({chunk.key for chunk in plan}) == len(plan)
        # Same configuration -> same keys (that is what makes resume work).
        again = checkpointed("analytic", device, axes, ResultCache(tmp_path))
        assert [c.key for c in again.chunk_plan()] == [c.key for c in plan]

    def test_chunk_size_is_part_of_the_identity(self, device, axes,
                                                tmp_path):
        cache = ResultCache(tmp_path)
        keys_2 = {c.key for c in checkpointed(
            "analytic", device, axes, cache, chunk_size=2).chunk_plan()}
        keys_4 = {c.key for c in checkpointed(
            "analytic", device, axes, cache, chunk_size=4).chunk_plan()}
        assert keys_2.isdisjoint(keys_4)

    def test_seed_is_part_of_the_identity(self, device, axes, tmp_path):
        cache = ResultCache(tmp_path)
        keys_a = {c.key for c in checkpointed(
            "analytic", device, axes, cache, seed=1).chunk_plan()}
        keys_b = {c.key for c in checkpointed(
            "analytic", device, axes, cache, seed=2).chunk_plan()}
        assert keys_a.isdisjoint(keys_b)

    def test_invalid_chunk_size_is_rejected(self, device, axes, tmp_path):
        with pytest.raises(CheckpointError):
            checkpointed("analytic", device, axes, ResultCache(tmp_path),
                         chunk_size=0)


@pytest.mark.parametrize("engine", [*engine_names(), *ENGINE_ALIASES])
class TestCrashResume:
    """The acceptance criterion: kill mid-run, resume bit-identically."""

    def test_interrupted_sweep_resumes_bit_identically(self, engine, device,
                                                       axes, tmp_path):
        reference = checkpointed(engine, device, axes,
                                 ResultCache(tmp_path / "ref"))
        expected = reference.run()
        assert reference.chunks_computed == 2
        assert reference.chunks_resumed == 0

        # Crash after the first chunk completed: the FaultInjected error
        # propagates like a kill would, but chunk 0 is already persisted.
        cache = ResultCache(tmp_path / "crashed")
        interrupted = checkpointed(engine, device, axes, cache)
        chaos = FaultInjector()
        chaos.arm("checkpoint.chunk", after=1, times=1)
        with chaos:
            with pytest.raises(FaultInjected):
                interrupted.run()
        assert interrupted.chunks_computed == 1

        resumed_sweep = checkpointed(engine, device, axes, cache)
        resumed = resumed_sweep.run()
        assert resumed_sweep.chunks_resumed == 1
        assert resumed_sweep.chunks_computed == 1
        assert_results_identical(expected, resumed)

    def test_completed_sweep_is_served_entirely_from_checkpoints(
            self, engine, device, axes, tmp_path):
        cache = ResultCache(tmp_path)
        first = checkpointed(engine, device, axes, cache)
        expected = first.run()
        second = checkpointed(engine, device, axes, cache)
        replayed = second.run()
        assert second.chunks_resumed == 2
        assert second.chunks_computed == 0
        assert_results_identical(expected, replayed)


class TestChunkIntegrity:
    def test_corrupted_chunk_artifact_is_recomputed(self, device, axes,
                                                    tmp_path):
        cache = ResultCache(tmp_path)
        sweep = checkpointed("analytic", device, axes, cache)
        expected = sweep.run()
        victim = sweep.chunk_plan()[1]
        cache.path_for(victim.key).write_text('{"currents": [1')
        repaired_sweep = checkpointed("analytic", device, axes, cache)
        repaired = repaired_sweep.run()
        assert repaired_sweep.chunks_resumed == 1
        assert repaired_sweep.chunks_computed == 1
        assert_results_identical(expected, repaired)

    def test_wrong_engine_payload_is_not_resumed(self, device, axes,
                                                 tmp_path):
        cache = ResultCache(tmp_path)
        sweep = checkpointed("analytic", device, axes, cache)
        plan = sweep.chunk_plan()
        cache.store(plan[0].key, {"engine": "someone-else",
                                  "currents": [0.0, 0.0], "stderrs": None})
        sweep.run()
        assert sweep.chunks_computed == 2
        assert sweep.chunks_resumed == 0

    def test_wrong_length_payload_is_not_resumed(self, device, axes,
                                                 tmp_path):
        cache = ResultCache(tmp_path)
        sweep = checkpointed("analytic", device, axes, cache)
        plan = sweep.chunk_plan()
        cache.store(plan[0].key, {"engine": "analytic",
                                  "currents": [0.0], "stderrs": None})
        sweep.run()
        assert sweep.chunks_computed == 2


class TestPolicyIntegration:
    def test_policy_statuses_are_reindexed_across_chunks(self, device, axes,
                                                         tmp_path):
        result = run_checkpointed_sweep(
            "analytic", device, axes, cache=ResultCache(tmp_path),
            temperature=1.0, seed=123, chunk_size=2,
            policy=FailurePolicy())
        assert result.statuses is not None
        assert [record.index for record in result.statuses] \
            == list(range(len(axes)))
        assert result.solved_mask().all()

    def test_policy_is_part_of_the_chunk_identity(self, device, axes,
                                                  tmp_path):
        cache = ResultCache(tmp_path)
        bare = checkpointed("analytic", device, axes, cache)
        policed = checkpointed("analytic", device, axes, cache,
                               policy=FailurePolicy())
        bare_keys = {c.key for c in bare.chunk_plan()}
        policed_keys = {c.key for c in policed.chunk_plan()}
        assert bare_keys.isdisjoint(policed_keys)

    def test_resumed_policy_sweep_keeps_its_statuses(self, device, axes,
                                                     tmp_path):
        cache = ResultCache(tmp_path)
        first = checkpointed("analytic", device, axes, cache,
                             policy=FailurePolicy())
        expected = first.run()
        second = checkpointed("analytic", device, axes, cache,
                              policy=FailurePolicy())
        replayed = second.run()
        assert second.chunks_resumed == 2
        assert replayed.statuses == expected.statuses
