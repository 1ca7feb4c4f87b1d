"""Chaos tests of the policed block stream (``MasterSession.stream``).

A clean block is one stacked ``sweep``; a block whose attempt raises, holds
a non-finite current or degrades is replayed point by point.  The replay
must be exactly the per-point policed stream (:func:`stream_with_policy`):
same records, same currents, same trailing ``skipped`` records, with the
``max_failures`` budget carried across blocks.  At 2 K the reference SET's
chains are irreducible, so a one-point ``solve`` equals the sweep there and
the two streams can be compared bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.master.steadystate import MasterEquationSolver
from repro.resilience import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    FailurePolicy,
    FaultInjector,
    stream_with_policy,
)
from repro.resilience.events import capture_degradations, emit_degradation
from repro.resilience.execution import stream_blocks

TEMPERATURE = 2.0


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    return SweepAxes(np.linspace(0.0, 2.0 * device.gate_period, 40), 5e-3)


def session_for(device):
    return get_engine("master").bind(device, temperature=TEMPERATURE)


def policed(stream, records):
    """Currents of a policed stream and the records it reported."""
    return np.array([observed.current for _, observed in stream]), records


def block_stream(device, axes, policy):
    records = []
    return policed(session_for(device).stream(
        axes, policy=policy, on_status=records.append), records)


def point_stream(device, axes, policy):
    records = []
    return policed(stream_with_policy(session_for(device), axes, policy,
                                      on_status=records.append), records)


def test_clean_blocks_are_ok_and_equal_the_sweep(device, axes):
    currents, records = block_stream(device, axes, FailurePolicy())
    assert np.array_equal(currents, session_for(device).sweep(axes).currents)
    assert records == [dataclasses.replace(records[0], index=index)
                       for index in range(len(axes))]
    assert records[0].status == STATUS_OK and records[0].attempts == 1


def test_forced_replay_is_the_per_point_stream(device, axes):
    chaos = FaultInjector()
    chaos.arm("sweep.fast", error=RuntimeError("stack down"), times=None)
    with chaos, capture_degradations() as events:
        currents, records = block_stream(device, axes, FailurePolicy())
    reference, expected = point_stream(device, axes, FailurePolicy())
    assert np.array_equal(currents, reference)
    assert records == expected
    # One attempt per block, each replayed (and reported) once.
    blocks = len(list(stream_blocks(axes)))
    assert chaos.fired("sweep.fast") == blocks
    assert [(e.site, e.action) for e in events] \
        == [("sweep.fast", "replay:per-point")] * blocks


def test_one_failed_block_replays_alone(device, axes):
    chaos = FaultInjector()
    chaos.arm("sweep.fast", after=3, times=1)      # the fourth block only
    with chaos:
        currents, records = block_stream(device, axes, FailurePolicy())
    assert np.array_equal(currents, session_for(device).sweep(axes).currents)
    assert [r.status for r in records] == [STATUS_OK] * len(axes)


@pytest.mark.parametrize("max_failures", [0, 1, 4])
def test_failure_budget_carries_across_replayed_blocks(device, axes,
                                                       max_failures):
    policy = FailurePolicy(max_retries=0, max_failures=max_failures)

    def run(stream):
        chaos = FaultInjector()
        chaos.arm("sweep.fast", times=None)
        chaos.arm("session.solve", error=RuntimeError("down"), times=None)
        with chaos:
            return stream(device, axes, policy)

    currents, records = run(block_stream)
    reference, expected = run(point_stream)
    assert records == expected
    assert np.array_equal(currents, reference, equal_nan=True)
    statuses = [r.status for r in records]
    assert statuses == [STATUS_FAILED] * (max_failures + 1) \
        + [STATUS_SKIPPED] * (len(axes) - max_failures - 1)
    assert len(currents) == max_failures + 1


def test_budget_spent_in_one_block_skips_the_clean_ones(device, axes):
    # Only the third block's stacked attempt fails; its points then fail
    # one by one, and every later block is skipped without an attempt.
    policy = FailurePolicy(max_retries=0, max_failures=1)
    chaos = FaultInjector()
    chaos.arm("sweep.fast", after=2, times=1)
    chaos.arm("session.solve", error=RuntimeError("down"), times=None)
    with chaos:
        currents, records = block_stream(device, axes, policy)
    assert chaos.fired("sweep.fast") == 1
    assert chaos.calls("sweep.fast") == 3
    statuses = [r.status for r in records]
    assert statuses == [STATUS_OK] * 3 + [STATUS_FAILED] * 2 \
        + [STATUS_SKIPPED] * (len(axes) - 5)
    assert np.isfinite(currents[:3]).all() and np.isnan(currents[3:]).all()


@pytest.fixture
def degrading_point(monkeypatch, axes):
    """Every stacked solve holding ``axes`` point 5 emits one degradation."""
    target = axes.gate_voltages[5]
    original = MasterEquationSolver._solve_stack

    def degrading(self, voltages, *args, **kwargs):
        if np.any(voltages == target):
            emit_degradation("test.site", "fallback:test", "point 5")
        return original(self, voltages, *args, **kwargs)

    monkeypatch.setattr(MasterEquationSolver, "_solve_stack", degrading)
    return 5


def test_degradation_is_attributed_to_its_point_only(device, axes,
                                                     degrading_point):
    with capture_degradations() as events:
        currents, records = block_stream(device, axes, FailurePolicy())
    assert np.array_equal(currents, session_for(device).sweep(axes).currents)
    degraded = [r.index for r in records if r.status == STATUS_DEGRADED]
    assert degraded == [degrading_point]
    assert records[degrading_point].detail == "test.site->fallback:test"
    assert [r.status for r in records].count(STATUS_OK) == len(axes) - 1
    # The block's stacked attempt is withheld: subscribers see the one
    # event of the point's own solve, not a second copy from the block.
    assert [(e.site, e.detail) for e in events] == [("test.site", "point 5")]


def test_non_finite_block_is_replayed_by_the_health_guard(device, axes):
    session = session_for(device)
    clean = session.sweep

    def holey_sweep(block, **options):
        result = clean(block, **options)
        currents = result.currents.copy()
        currents[-1] = np.nan
        return dataclasses.replace(result, currents=currents)

    session.sweep = holey_sweep
    records = []
    currents = np.array([observed.current for _, observed in session.stream(
        axes, policy=FailurePolicy(), on_status=records.append)])
    assert np.array_equal(currents, clean(axes).currents)
    assert [r.status for r in records] == [STATUS_OK] * len(axes)
    # With the guard off, the holes stream through.
    unguarded = np.array([observed.current for _, observed in session.stream(
        axes, policy=FailurePolicy(health_guard=False))])
    assert np.isnan(unguarded).sum() == len(list(stream_blocks(axes)))
