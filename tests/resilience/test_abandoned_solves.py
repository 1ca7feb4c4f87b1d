"""A timed-out solve keeps its session until it returns.

A per-attempt timeout abandons the solve on its watchdog thread, but the
solve still runs there and still owns the session's warm state.  The policy
executor therefore starts nothing else on that session — the next point, a
retry, a stream block, a later policed sweep — until the abandoned solve
has returned, waiting at most ``point_timeout_s`` each time; a point whose
wait runs out is recorded ``timeout`` without a solve.
"""

import threading
import time

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import Observables, SweepAxes, SweepResult, get_engine
from repro.resilience import (
    STATUS_OK,
    STATUS_TIMEOUT,
    FailurePolicy,
    FaultInjector,
    run_policy_sweep,
    solve_point_with_policy,
)
from repro.resilience.execution import stream_blocks_with_policy

DRAIN_VOLTAGE = 2e-3

#: Watchdog budget of the slowed point, and how long that point's solve
#: sleeps: past one budget, well within the next point's wait.
TIMEOUT_S = 0.3
SLOW_S = 0.45


class _OverlapSession:
    """Stub session that notes any solve or sweep starting during another."""

    engine_name = "stub"

    def __init__(self, slow_points=(), sweep_error=None):
        self.slow_points = set(slow_points)
        self.sweep_error = sweep_error
        self.active = 0
        self.overlaps = 0
        self.solved = []
        self._lock = threading.Lock()

    def _enter(self):
        with self._lock:
            self.active += 1
            self.overlaps += self.active > 1

    def _leave(self):
        with self._lock:
            self.active -= 1

    def solve(self, bias):
        self._enter()
        try:
            if bias.gate_voltage in self.slow_points:
                time.sleep(SLOW_S)
            else:
                time.sleep(0.005)
            self.solved.append(bias.gate_voltage)
            return Observables(current=bias.gate_voltage, engine="stub")
        finally:
            self._leave()

    def sweep(self, axes, *, workers=1, policy=None):
        self._enter()
        try:
            if self.sweep_error is not None:
                raise self.sweep_error
            time.sleep(0.005)
            gates = np.asarray(axes.gate_voltages, dtype=float)
            return SweepResult(axes=axes, currents=gates.copy(),
                               stderrs=None, engine="stub")
        finally:
            self._leave()


def _policy():
    return FailurePolicy(max_retries=0, point_timeout_s=TIMEOUT_S)


def test_salvaged_points_wait_for_the_abandoned_solve():
    gates = [0.0, 1.0, 2.0, 3.0]
    session = _OverlapSession(slow_points={1.0},
                              sweep_error=RuntimeError("fast path down"))
    result = run_policy_sweep(session, SweepAxes(gates, DRAIN_VOLTAGE),
                              _policy())
    statuses = [record.status for record in result.statuses]
    assert statuses == [STATUS_OK, STATUS_TIMEOUT, STATUS_OK, STATUS_OK]
    assert session.overlaps == 0
    # The abandoned solve finished before the next point started.
    assert session.solved == [0.0, 1.0, 2.0, 3.0]


def test_a_later_sweep_and_stream_blocks_wait_too():
    session = _OverlapSession(slow_points={5.0})
    bias = next(iter(SweepAxes([5.0], DRAIN_VOLTAGE).bias_points()))
    _, record = solve_point_with_policy(session, bias, 0, _policy())
    assert record.status == STATUS_TIMEOUT
    # The fast path of a later policed sweep must not start beside it.
    result = run_policy_sweep(session, SweepAxes([0.0, 1.0], DRAIN_VOLTAGE),
                              _policy())
    assert [r.status for r in result.statuses] == [STATUS_OK, STATUS_OK]
    assert session.overlaps == 0

    _, record = solve_point_with_policy(session, bias, 0, _policy())
    assert record.status == STATUS_TIMEOUT
    axes = SweepAxes([0.0, 1.0, 2.0], DRAIN_VOLTAGE)
    streamed = list(stream_blocks_with_policy(session, axes, _policy()))
    assert [observed.current for _, observed in streamed] == [0.0, 1.0, 2.0]
    assert session.overlaps == 0


def test_a_wait_that_runs_out_records_a_timeout_without_a_solve():
    session = _OverlapSession(slow_points={5.0})
    bias = next(iter(SweepAxes([5.0], DRAIN_VOLTAGE).bias_points()))
    short = FailurePolicy(max_retries=0, point_timeout_s=0.05)
    _, first = solve_point_with_policy(session, bias, 0, short)
    assert first.status == STATUS_TIMEOUT and first.attempts == 1
    next_bias = next(iter(SweepAxes([1.0], DRAIN_VOLTAGE).bias_points()))
    observed, second = solve_point_with_policy(session, next_bias, 1, short)
    assert observed is None
    assert second.status == STATUS_TIMEOUT
    assert second.attempts == 0
    assert "still running" in second.error
    assert 1.0 not in session.solved
    time.sleep(SLOW_S)
    assert session.overlaps == 0


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


def _montecarlo(device):
    return get_engine("montecarlo").bind(device, temperature=1.0, seed=29,
                                         max_events=2_000, warmup_events=200)


def test_seeded_montecarlo_points_match_the_untimed_replay(device,
                                                           monkeypatch):
    axes = SweepAxes(np.linspace(0.0, device.gate_period, 6), 5e-3)
    slow = 2
    reference = _montecarlo(device)
    expected = [reference.solve(bias).current for bias in axes.bias_points()]

    session = _montecarlo(device)
    solve = session.solve

    def slowed(bias):
        if bias.gate_voltage == axes.gate_voltages[slow]:
            time.sleep(SLOW_S)
        return solve(bias)

    monkeypatch.setattr(session, "solve", slowed)
    chaos = FaultInjector()
    chaos.arm("sweep.fast", error=RuntimeError("fast path down"), times=None)
    with chaos:
        result = run_policy_sweep(
            session, axes, FailurePolicy(max_retries=0,
                                         point_timeout_s=TIMEOUT_S))
    statuses = [record.status for record in result.statuses]
    assert statuses[slow] == STATUS_TIMEOUT
    others = [index for index in range(len(axes)) if index != slow]
    assert all(statuses[index] == STATUS_OK for index in others)
    assert np.array_equal(result.currents[others],
                          np.asarray(expected)[others])
