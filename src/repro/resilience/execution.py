"""The failure-policy executor behind policy-carrying sweeps and streams.

Clean runs must stay on the engines' structure-reusing fast paths (one
broadcast call for the analytic model, warm-started sweeps for the others),
so the executor is *optimistic*: :func:`run_policy_sweep` first attempts the
whole sweep through ``Session.sweep`` while recording degradation events,
and only drops to per-point execution to *salvage* — when the fast path
raises, or when the health guard finds non-finite currents in an otherwise
successful sweep.  On a healthy sweep the policy costs one try/except, one
subscriber registration, and one ``isfinite`` scan (<1% of any real sweep).

Per-point execution applies the :class:`~repro.resilience.policy.FailurePolicy`
in full: retries with exponential backoff, per-attempt wall-clock timeouts,
the non-finite health guard, and the ``max_failures`` sweep budget.  Every
point produces a typed :class:`~repro.resilience.policy.PointRecord`; the
partial :class:`~repro.engines.base.SweepResult` carries them in its
``statuses`` field with NaN currents at abandoned points — a failed point
degrades the result instead of aborting the sweep.

A policed *stream* stays on the fast path block by block.
:func:`stream_with_policy` solves every point through ``Session.solve``;
:func:`stream_blocks_with_policy` (the master session's stream) walks the
axis in blocks of 1, 2, 4, ... points (at most :data:`STREAM_BLOCK_POINTS`)
and tries each block as one ``Session.sweep``.  A clean block yields ``ok``
points; a block whose attempt raises, holds a non-finite current (health
guard on) or emits a degradation event is replayed point by point under the
full policy, exactly as :func:`stream_with_policy` would solve it.  The
attempt's own events are withheld from subscribers (the replay emits each
point's events again), and the ``max_failures`` budget carries across
blocks.

Worker-crash recovery: a ``workers > 1`` fan-out that raises is retried
serially (one ``executor.pool`` degradation event) before per-point salvage
is considered.

Timeout caveat: per-attempt timeouts run the solve on a watchdog thread and
abandon it on expiry — the stuck thread is left to finish in the background.
This bounds *the sweep's* latency, not the process's thread count; use
timeouts for genuinely hung solvers, not as a routine budget.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..engines.base import BiasPoint, Observables, Session, SweepAxes, \
    SweepResult
from ..errors import PointTimeout, SolverError
from .events import (
    DegradationEvent,
    _withheld_degradations,
    capture_degradations,
    emit_degradation,
)
from .faults import inject
from .policy import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    FailurePolicy,
    PointRecord,
    _shared_records,
    empty_records,
)


#: Largest block :func:`stream_blocks` hands out: it bounds the work between
#: two yields (~2 ms for 64 points of the reference SET).  A 129-point axis
#: runs 8 stacked solves (1, 2, ..., 64, 2), as many as with no cap; a
#: 513-point axis pays ~1.5x the uncapped stream's time.
STREAM_BLOCK_POINTS = 64

#: Statuses of points a failure policy abandoned (they spend the budget).
_ABANDONED = (STATUS_FAILED, STATUS_TIMEOUT)


def _event_detail(events: List[DegradationEvent]) -> str:
    """Compact ``site->action`` summary of captured degradation events."""
    return "; ".join(f"{e.site}->{e.action}" for e in events)


def _call_with_timeout(solve: Callable[[BiasPoint], Observables],
                       bias: BiasPoint,
                       timeout_s: Optional[float]) -> Observables:
    """Run one solve, optionally under a wall-clock watchdog.

    Parameters
    ----------
    solve:
        The session's bound ``solve`` method.
    bias:
        The bias point to solve.
    timeout_s:
        Budget in seconds; ``None`` calls straight through (no thread).

    Returns
    -------
    Observables
        The solved point.
    """
    if timeout_s is None:
        return solve(bias)
    executor = ThreadPoolExecutor(max_workers=1)
    future = executor.submit(solve, bias)
    try:
        return future.result(timeout=timeout_s)
    except _FuturesTimeout:
        raise PointTimeout(
            f"point solve exceeded point_timeout_s={timeout_s}") from None
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def solve_point_with_policy(session: Session, bias: BiasPoint, index: int,
                            policy: FailurePolicy,
                            ) -> Tuple[Optional[Observables], PointRecord]:
    """Solve one bias point under a failure policy.

    Retries (with exponential backoff) on exceptions and — when the health
    guard is on — on non-finite currents; abandons immediately on a
    per-attempt timeout (a hung solver will hang again).

    Parameters
    ----------
    session:
        The bound session whose ``solve`` to use.
    bias:
        The bias point.
    index:
        Flat sweep index recorded on the :class:`PointRecord`.
    policy:
        The failure policy to apply.

    Returns
    -------
    (Observables or None, PointRecord)
        The solved observables (``None`` when abandoned) and the typed
        status record.
    """
    attempts = 0
    budget = 1 + policy.max_retries
    last_error: Optional[BaseException] = None
    while attempts < budget:
        attempts += 1
        try:
            with capture_degradations() as events:
                inject("session.solve")
                observed = _call_with_timeout(session.solve, bias,
                                              policy.point_timeout_s)
            if policy.health_guard and not math.isfinite(observed.current):
                raise SolverError(
                    f"non-finite current {observed.current!r} at sweep "
                    f"point {index} (health guard)")
            if attempts > 1:
                status = STATUS_RETRIED
            elif events:
                status = STATUS_DEGRADED
            else:
                status = STATUS_OK
            return observed, PointRecord(index=index, status=status,
                                         attempts=attempts,
                                         detail=_event_detail(events))
        except PointTimeout as error:
            return None, PointRecord(index=index, status=STATUS_TIMEOUT,
                                     attempts=attempts, error=repr(error))
        except Exception as error:
            last_error = error
            if attempts < budget:
                backoff = policy.backoff_for(attempts)
                if backoff > 0.0:
                    time.sleep(backoff)
    return None, PointRecord(index=index, status=STATUS_FAILED,
                             attempts=attempts, error=repr(last_error))


def _fast_sweep(session: Session, axes: SweepAxes,
                workers: int) -> SweepResult:
    """The optimistic whole-sweep path, with serial worker-crash recovery."""
    if workers > 1:
        try:
            inject("executor.pool")
            return session.sweep(axes, workers=workers)
        except Exception as error:
            emit_degradation("executor.pool", "recover:serial", repr(error))
    return session.sweep(axes, workers=1)


def _solve_points(session: Session, axes: SweepAxes, indices: Sequence[int],
                  policy: FailurePolicy, failures: int = 0
                  ) -> Iterator[Tuple[int, Optional[Observables],
                                      PointRecord]]:
    """Solve ``indices`` one by one: ``(index, observables, record)`` each.

    Observables are ``None`` for an abandoned point.  Once more than
    ``max_failures`` points have been abandoned (counting the ``failures``
    spent before these indices), the remaining indices are yielded unsolved
    with ``skipped`` records.
    """
    for index in indices:
        if policy.max_failures is not None \
                and failures > policy.max_failures:
            yield index, None, PointRecord(index=index, status=STATUS_SKIPPED,
                                           attempts=0)
            continue
        bias = BiasPoint(gate_voltage=axes.gate_voltages[index],
                         drain_voltage=axes.drain_voltage)
        observed, record = solve_point_with_policy(session, bias, index,
                                                   policy)
        failures += observed is None
        yield index, observed, record


def _salvage_sweep(session: Session, seed: SweepResult,
                   indices: Sequence[int],
                   policy: FailurePolicy) -> SweepResult:
    """Re-solve ``indices`` of ``seed`` point by point; other points stay.

    ``seed`` is the fast sweep with its shared records, or a blank result
    (NaN currents, ``skipped`` records) when the fast path raised.  A
    re-solved point that is abandoned gets NaN current and stderr; a point
    skipped by the ``max_failures`` budget keeps ``seed``'s values.
    """
    axes = seed.axes
    currents = np.array(seed.currents, dtype=float)
    reported = seed.stderrs is not None
    stderrs = np.full(len(axes), np.nan) if seed.stderrs is None \
        else np.array(seed.stderrs, dtype=float)
    records = list(seed.statuses)
    for index, observed, record in _solve_points(session, axes, indices,
                                                 policy):
        records[index] = record
        if record.status == STATUS_SKIPPED:
            continue
        stderr = None if observed is None else observed.stderr
        currents[index] = np.nan if observed is None else observed.current
        stderrs[index] = np.nan if stderr is None else stderr
        reported = reported or stderr is not None
    return SweepResult(axes=axes, currents=currents,
                       stderrs=stderrs if reported else None,
                       engine=seed.engine, statuses=tuple(records))


def run_policy_sweep(session: Session, axes: SweepAxes,
                     policy: FailurePolicy, *,
                     workers: int = 1) -> SweepResult:
    """Run a gate sweep under a failure policy (partial results, never aborts).

    The optimistic structure: try the engine's whole-sweep fast path first;
    salvage per point only when it raises, and re-solve only the non-finite
    points when the health guard flags some.  See the module docstring for
    the full semantics.

    Parameters
    ----------
    session:
        The bound session.
    axes:
        Gate axis plus fixed drain bias.
    policy:
        The failure policy.
    workers:
        Worker processes for the fast-path fan-out; a crashing pool is
        recovered serially before per-point salvage.

    Returns
    -------
    SweepResult
        With ``statuses`` populated (one typed record per point) and NaN
        currents at abandoned points.
    """
    n_points = len(axes)
    try:
        with capture_degradations() as events:
            inject("sweep.fast")
            fast = _fast_sweep(session, axes, workers)
    except Exception as error:
        emit_degradation("sweep.fast", "salvage:per-point", repr(error))
        blank = SweepResult(axes=axes, currents=np.full(n_points, np.nan),
                            stderrs=None, engine=session.engine_name,
                            statuses=empty_records(n_points))
        return _salvage_sweep(session, blank, range(n_points), policy)
    # The broadcast path cannot attribute a degradation event to one point,
    # so a degraded fast sweep marks every point degraded (detail says why).
    status = STATUS_DEGRADED if events else STATUS_OK
    fast = dataclasses.replace(fast, statuses=_shared_records(
        n_points, status, _event_detail(events)))
    unhealthy = np.flatnonzero(~np.isfinite(fast.currents)).tolist() \
        if policy.health_guard else []
    return _salvage_sweep(session, fast, unhealthy, policy)


def _streamed(session: Session, axes: SweepAxes,
              points: Iterator[Tuple[int, Optional[Observables],
                                     PointRecord]],
              on_status: Optional[Callable[[PointRecord], None]]
              ) -> Iterator[Tuple[float, Observables]]:
    """Yield solved ``points`` as stream pairs, reporting every record."""
    for index, observed, record in points:
        if on_status is not None:
            on_status(record)
        if record.status == STATUS_SKIPPED:
            continue
        if observed is None:
            observed = Observables(current=float("nan"),
                                   engine=session.engine_name)
        yield axes.gate_voltages[index], observed


def stream_with_policy(session: Session, axes: SweepAxes,
                       policy: FailurePolicy,
                       on_status: Optional[Callable[[PointRecord], None]]
                       = None) -> Iterator[Tuple[float, Observables]]:
    """Stream a sweep point by point under a failure policy.

    Abandoned points are yielded with NaN current (consumers keep their
    axis alignment); once the sweep budget ``max_failures`` is exhausted the
    stream notifies ``skipped`` records for the remaining points and stops.

    Parameters
    ----------
    session:
        The bound session.
    axes:
        Gate axis plus fixed drain bias.
    policy:
        The failure policy.
    on_status:
        Optional callback receiving every :class:`PointRecord` (including
        the trailing ``skipped`` ones) as it is decided.

    Yields
    ------
    (gate_voltage, Observables)
        One pair per attempted point, in axis order.
    """
    yield from _streamed(session, axes,
                         _solve_points(session, axes, range(len(axes)),
                                       policy), on_status)


def stream_blocks(axes: SweepAxes) -> Iterator[Tuple[range, SweepAxes]]:
    """Split ``axes`` into consecutive blocks of 1, 2, 4, ... points.

    Block sizes double up to :data:`STREAM_BLOCK_POINTS`; the last block
    holds what is left.  A consumer that stops after ``k`` points of a
    block-wise stream has had fewer than ``2 k`` points solved.

    Parameters
    ----------
    axes:
        Gate axis plus fixed drain bias.

    Yields
    ------
    (range, SweepAxes)
        The block's flat indices into ``axes`` and the block as axes.
    """
    gates = axes.gate_voltages
    start, size = 0, 1
    while start < len(gates):
        stop = min(len(gates), start + size)
        yield range(start, stop), SweepAxes(gates[start:stop],
                                            axes.drain_voltage)
        start, size = stop, min(2 * size, STREAM_BLOCK_POINTS)


def _stacked_block(session: Session, block: SweepAxes,
                   policy: FailurePolicy) -> Optional[SweepResult]:
    """One block as one ``Session.sweep``; ``None`` when it must be replayed.

    The attempt's degradation events are withheld from subscribers: a
    degraded block is replayed, and the replay emits each point's events.
    """
    try:
        with _withheld_degradations() as events:
            inject("sweep.fast")
            result = session.sweep(block)
    except Exception as error:
        emit_degradation("sweep.fast", "replay:per-point", repr(error))
        return None
    if events or (policy.health_guard
                  and not np.isfinite(result.currents).all()):
        return None
    return result


def _block_points(session: Session, axes: SweepAxes, policy: FailurePolicy
                  ) -> Iterator[Tuple[int, Optional[Observables],
                                      PointRecord]]:
    """:func:`_solve_points` over ``axes``, a clean block at a time.

    Once the budget is spent, the remaining blocks go straight to
    :func:`_solve_points`, which skips their points.
    """
    failures = 0
    for indices, block in stream_blocks(axes):
        stacked = None
        if policy.max_failures is None or failures <= policy.max_failures:
            stacked = _stacked_block(session, block, policy)
        if stacked is not None:
            for index, (_, observed) in zip(indices, stacked):
                yield index, observed, PointRecord(index=index,
                                                   status=STATUS_OK)
            continue
        for index, observed, record in _solve_points(session, axes, indices,
                                                     policy, failures):
            failures += record.status in _ABANDONED
            yield index, observed, record


def stream_blocks_with_policy(session: Session, axes: SweepAxes,
                              policy: FailurePolicy,
                              on_status: Optional[
                                  Callable[[PointRecord], None]] = None
                              ) -> Iterator[Tuple[float, Observables]]:
    """:func:`stream_with_policy` on one stacked ``sweep`` per clean block.

    The axis runs in the blocks of :func:`stream_blocks`.  A clean block
    yields its points with ``ok`` records; a block whose ``sweep`` raises,
    holds a non-finite current (health guard on) or emits a degradation
    event is replayed point by point as :func:`stream_with_policy` solves
    it, records included.  The ``max_failures`` budget carries across
    blocks.  The stacked attempt passes the ``sweep.fast`` fault site.

    Parameters
    ----------
    session:
        The bound session; its ``sweep`` must give the same current at a
        point whatever block the point is solved in.
    axes:
        Gate axis plus fixed drain bias.
    policy:
        The failure policy.
    on_status:
        Optional callback receiving every :class:`PointRecord` (including
        the trailing ``skipped`` ones) as it is decided.

    Yields
    ------
    (gate_voltage, Observables)
        One pair per attempted point, in axis order.
    """
    yield from _streamed(session, axes, _block_points(session, axes, policy),
                         on_status)


__all__ = [
    "STREAM_BLOCK_POINTS",
    "run_policy_sweep",
    "solve_point_with_policy",
    "stream_blocks",
    "stream_blocks_with_policy",
    "stream_with_policy",
]
