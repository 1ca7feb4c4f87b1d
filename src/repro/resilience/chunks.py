"""One executor for content-hashed, resumable chunk runs.

Design scans (:class:`~repro.design.scan.DeviceScan`) and checkpointed
sweeps (:class:`~repro.resilience.checkpoint.CheckpointedSweep`) both shard
their work into chunks whose numbers are a pure function of their cache
key.  :func:`run_chunks` owns what they share: the cache round trip, the
computed / resumed / failed counts, the resume log line and the process
pool.  Its chunk-failure contract:

* without a policy, the first exception propagates, whether ``compute`` or
  the pool raised it; chunks finished earlier stay persisted;
* with a policy, an exception raised by ``compute`` loses that chunk: it is
  counted failed and left uncached, so a re-run recomputes exactly it;
* with a policy, a broken pool (a crashed worker, a dispatch or pickling
  error) recomputes every unfinished chunk serially under this contract.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..io.results import ResultCache
from .policy import FailurePolicy

_LOG = logging.getLogger("repro.resilience")

Payload = Mapping[str, Any]


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
    """Compute one chunk, returning what ``compute`` raised as a value.

    Also the pool's entry point, so an exception out of ``future.result()``
    is always the pool's own, never a chunk's.
    """
    try:
        return compute(chunk), None
    except Exception as error:  # noqa: BLE001 - judged by the contract
        return None, error


def run_chunks(chunks: Sequence[Any], compute: Callable[[Any], Payload],
               valid: Callable[[Any, Payload], bool], *,
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
                futures = [pool.submit(_attempt, compute, chunk)
                           for chunk in pending]
                for chunk, future in zip(pending, futures):
                    finish(chunk, *future.result())
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


__all__ = ["ChunkCounts", "run_chunks"]
