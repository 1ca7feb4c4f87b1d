"""The one executor and process pool for chunked work.

Design scans (:class:`~repro.design.scan.DeviceScan`) and checkpointed
sweeps (:class:`~repro.resilience.checkpoint.CheckpointedSweep`) both shard
their work into chunks whose numbers are a pure function of their cache
key; the ``workers=N`` sweeps of the master-equation and Monte-Carlo tiers
shard their points with :func:`split_points` and run them through
:func:`fan_out`.  :func:`run_chunks` owns what they share: the cache round
trip, the computed / resumed / failed counts, the resume log line and the
process pool.  Its chunk-failure contract:

* without a policy, the first exception propagates, whether ``compute`` or
  the pool raised it; chunks finished earlier stay persisted;
* with a policy, an exception raised by ``compute`` loses that chunk: it is
  counted failed and left uncached, so a re-run recomputes exactly it;
* with a policy, a broken pool (a crashed worker, a dispatch or pickling
  error) recomputes every unfinished chunk serially under this contract.

Degradation events that ``compute`` emits inside a pool worker come back
with its payload and are re-emitted in the parent, so a policy capturing
events there sees a degraded worker exactly as it sees a degraded
in-process chunk.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..io.results import ResultCache
from .events import DegradationEvent, capture_degradations, emit_degradation
from .policy import FailurePolicy

_LOG = logging.getLogger("repro.resilience")

#: One chunk's result; a mapping wherever a cache stores it.
Payload = Any


class ChunkCounts:
    """What the last :func:`run_chunks` call did with its chunks.

    ``chunks_computed`` were computed (and stored), ``chunks_resumed`` were
    served from the cache, and ``chunks_failed`` were lost under a policy.
    """

    chunks_computed = 0
    chunks_resumed = 0
    chunks_failed = 0


def _attempt(compute: Callable[[Any], Payload],
             chunk: Any) -> Tuple[Optional[Payload], Optional[Exception]]:
    """Compute one chunk, returning what ``compute`` raised as a value."""
    try:
        return compute(chunk), None
    except Exception as error:  # noqa: BLE001 - judged by the contract
        return None, error


def _pooled_attempt(compute: Callable[[Any], Payload],
                    chunk: Any) -> Tuple[Any, Any, List[DegradationEvent]]:
    """The pool's entry point: :func:`_attempt` plus its degradation events.

    Events emitted in a worker reach no subscriber of the parent, so they
    travel back with the payload.  An exception out of ``future.result()``
    is therefore always the pool's own, never a chunk's.
    """
    with capture_degradations() as events:
        payload, error = _attempt(compute, chunk)
    return payload, error, events


def run_chunks(chunks: Sequence[Any], compute: Callable[[Any], Payload],
               valid: Optional[Callable[[Any, Payload], bool]], *,
               cache: Optional[ResultCache], policy: Optional[FailurePolicy],
               workers: int, counts: ChunkCounts) -> List[Optional[Payload]]:
    """Resume or compute every chunk of a plan.

    Parameters
    ----------
    chunks:
        The plan; each chunk has an ``index`` (its position in the plan)
        and a cache ``key``.
    compute:
        Computes one chunk's payload; it must pickle when ``workers > 1``.
    valid:
        Whether a cached payload fits the chunk; if not, it is recomputed.
        Never called without a cache.
    cache:
        Where finished chunks persist; ``None`` loads and stores nothing.
    policy:
        Selects the chunk-failure contract (see the module docstring).
    workers:
        Worker processes; ``1`` computes in-process.
    counts:
        Reset here, then kept current even if the run raises.

    Returns
    -------
    list
        One payload per chunk, in plan order; ``None`` for a lost chunk.
    """
    counts.chunks_computed = counts.chunks_resumed = counts.chunks_failed = 0
    owner = type(counts).__name__
    payloads: List[Optional[Payload]] = [None] * len(chunks)
    pending = []
    for chunk in chunks:
        cached = None if cache is None else cache.load(chunk.key)
        if cached is not None and valid(chunk, cached):
            payloads[chunk.index] = cached
            counts.chunks_resumed += 1
            _LOG.info("%s: resumed chunk %d [%s]", owner, chunk.index,
                      chunk.key[:12])
        else:
            pending.append(chunk)

    def finish(chunk: Any, payload: Optional[Payload],
               error: Optional[Exception]) -> None:
        """Store and count one outcome, or apply the contract to its error."""
        if error is not None:
            if policy is None:
                raise error
            counts.chunks_failed += 1
            _LOG.warning("%s: chunk %d lost under policy", owner,
                         chunk.index, exc_info=error)
            return
        if cache is not None:
            cache.store(chunk.key, payload)
        payloads[chunk.index] = payload
        counts.chunks_computed += 1

    if workers > 1 and len(pending) > 1:
        finished = 0
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_pooled_attempt, compute, chunk)
                           for chunk in pending]
                for chunk, future in zip(pending, futures):
                    payload, error, events = future.result()
                    for event in events:
                        emit_degradation(event.site, event.action,
                                         event.detail)
                    finish(chunk, payload, error)
                    finished += 1
        except Exception:
            if policy is None:
                raise
            _LOG.warning("%s: process pool failed; computing the remaining "
                         "chunks serially", owner, exc_info=True)
        pending = pending[finished:]
    for chunk in pending:
        finish(chunk, *_attempt(compute, chunk))
    return payloads


class PointChunk(NamedTuple):
    """One contiguous share of a fanned-out sweep's points."""

    index: int
    points: np.ndarray


def split_points(values: Sequence[float], workers: int) -> List[PointChunk]:
    """Split sweep points into ``min(workers, len(values))`` chunks, in order.

    The split depends on ``workers`` and the point count only, never on the
    host's CPU count, so seeded per-chunk results do not move between
    hosts.
    """
    shares = np.array_split(np.asarray(values, dtype=float),
                            min(int(workers), len(values)))
    return [PointChunk(index, share) for index, share in enumerate(shares)]


def fan_out(compute: Callable[[PointChunk], Any],
            chunks: Sequence[PointChunk]) -> List[Any]:
    """Compute every chunk on its own pool worker; results in chunk order.

    No cache and no policy: a worker's exception or a broken pool
    propagates (the session policy layer recovers it serially).
    """
    return run_chunks(chunks, compute, None, cache=None, policy=None,
                      workers=len(chunks), counts=ChunkCounts())


__all__ = ["ChunkCounts", "PointChunk", "fan_out", "run_chunks",
           "split_points"]
