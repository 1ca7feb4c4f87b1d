"""Checkpointed, resumable sweeps: content-hashed chunks in the result cache.

A :class:`CheckpointedSweep` shards one :class:`~repro.engines.base.SweepAxes`
into fixed-size chunks, computes each chunk in a freshly bound session, and
persists each finished chunk through a
:class:`~repro.io.results.ResultCache` under a content hash of *everything
that determines the chunk's numbers* — engine, device parameters, operating
conditions, root seed, chunk geometry, and failure policy.  A sweep that is
killed mid-run (worker crash, preemption, ``kill -9``) therefore resumes by
construction: re-running the same checkpointed sweep loads every finished
chunk from the cache and recomputes only the unfinished ones, and the merged
:class:`~repro.engines.base.SweepResult` is bit-identical to an
uninterrupted run.

Stochastic engines stay bit-reproducible because each chunk gets a
*deterministic derived seed* — SHA-256 of the root seed and the chunk's
start index — instead of sharing one warm random stream whose state would
depend on how many chunks already ran.  Whatever chunk size you pick, the
result is a pure function of ``(spec, root seed, chunk size)``; the chunk
size is part of the content hash, so results computed at different chunk
sizes never alias in the cache.

This is the foundation for the distributed sweep fabric (ROADMAP item 5):
chunks are independent, content-addressed work units that any worker can
compute and any coordinator can merge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..engines.base import Engine, SweepAxes, SweepResult
from ..errors import CheckpointError
from ..io.results import ResultCache, column_length
from .execution import run_policy_sweep
from .faults import inject
from .policy import FailurePolicy, PointRecord

_LOG = logging.getLogger("repro.resilience")


def derive_chunk_seed(root_seed: Optional[int],
                      start: int) -> Optional[int]:
    """Deterministic per-chunk seed from the root seed and chunk start index.

    Parameters
    ----------
    root_seed:
        The sweep's root seed; ``None`` stays ``None`` (unseeded engines).
    start:
        Flat index of the chunk's first sweep point.

    Returns
    -------
    int or None
        A 32-bit seed, stable across processes and Python versions.
    """
    if root_seed is None:
        return None
    digest = hashlib.sha256(f"{root_seed}:{start}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class SweepChunk:
    """One content-addressed unit of a checkpointed sweep.

    Parameters
    ----------
    index:
        Chunk ordinal (0-based).
    start:
        Flat index of the chunk's first point in the full axes.
    axes:
        The chunk's own gate slice (same drain bias as the full sweep).
    seed:
        Derived chunk seed (``None`` when the sweep is unseeded).
    key:
        Cache key the chunk's result is stored under.
    """

    index: int
    start: int
    axes: SweepAxes
    seed: Optional[int]
    key: str


class CheckpointedSweep:
    """A resumable gate sweep persisted chunk by chunk through a result cache.

    Parameters
    ----------
    engine:
        Engine instance or registry name.
    device:
        The SET device to sweep.
    axes:
        Full gate axis plus fixed drain bias.
    cache:
        The artifact store checkpoints live in.
    temperature:
        Operating temperature in kelvin.
    seed:
        Root seed; each chunk derives its own via :func:`derive_chunk_seed`.
    chunk_size:
        Sweep points per chunk (the resume granularity).
    policy:
        Optional per-point :class:`FailurePolicy`; when given, chunks run
        through :func:`~repro.resilience.execution.run_policy_sweep` and the
        merged result carries per-point status records.
    background_charge, max_events, warmup_events, replicas:
        Forwarded to :meth:`Engine.bind` (and folded into chunk identity).
    """

    def __init__(self, engine: Union[str, Engine], device: SETTransistor,
                 axes: SweepAxes, *, cache: ResultCache, temperature: float,
                 seed: Optional[int] = None, chunk_size: int = 64,
                 policy: Optional[FailurePolicy] = None,
                 background_charge: Optional[float] = None,
                 max_events: int = 20_000, warmup_events: int = 1_000,
                 replicas: int = 0) -> None:
        if chunk_size < 1:
            raise CheckpointError("chunk_size must be at least 1")
        if isinstance(engine, str):
            from ..engines import get_engine

            engine = get_engine(engine)
        self.engine = engine
        self.device = device
        self.axes = axes
        self.cache = cache
        self.temperature = float(temperature)
        self.seed = seed
        self.chunk_size = int(chunk_size)
        self.policy = policy
        self.background_charge = background_charge
        self.max_events = int(max_events)
        self.warmup_events = int(warmup_events)
        self.replicas = int(replicas)
        #: Chunks recomputed by the last :meth:`run` call.
        self.chunks_computed = 0
        #: Chunks served from the cache by the last :meth:`run` call.
        self.chunks_resumed = 0

    # ------------------------------------------------------------ identity

    def _chunk_context(self, start: int,
                       gates: Tuple[float, ...]) -> Dict[str, Any]:
        """Everything that determines one chunk's numbers, as a JSON-able dict."""
        return {
            "kind": "checkpoint-chunk",
            "engine": self.engine.name,
            "device": dataclasses.asdict(self.device),
            "temperature": self.temperature,
            "background_charge": self.background_charge,
            "root_seed": self.seed,
            "chunk_size": self.chunk_size,
            "start": start,
            "gate_voltages": list(gates),
            "drain_voltage": self.axes.drain_voltage,
            "max_events": self.max_events,
            "warmup_events": self.warmup_events,
            "replicas": self.replicas,
            "policy": None if self.policy is None else self.policy.as_dict(),
        }

    def chunk_plan(self) -> List[SweepChunk]:
        """The sweep's chunks, in order, with derived seeds and cache keys."""
        from ..io.results import content_hash

        chunks: List[SweepChunk] = []
        gates = self.axes.gate_voltages
        for ordinal, start in enumerate(range(0, len(gates),
                                              self.chunk_size)):
            slice_gates = gates[start:start + self.chunk_size]
            axes = SweepAxes(slice_gates, self.axes.drain_voltage)
            key = self.cache.key_for(
                content_hash(self._chunk_context(start, slice_gates)))
            chunks.append(SweepChunk(index=ordinal, start=start, axes=axes,
                                     seed=derive_chunk_seed(self.seed, start),
                                     key=key))
        return chunks

    # ------------------------------------------------------------ execution

    def _compute_chunk(self, chunk: SweepChunk, *,
                       workers: int) -> Dict[str, Any]:
        """Bind a fresh session for one chunk, run it, and return its payload."""
        inject("checkpoint.chunk")
        session = self.engine.bind(self.device, temperature=self.temperature,
                                   seed=chunk.seed,
                                   background_charge=self.background_charge,
                                   max_events=self.max_events,
                                   warmup_events=self.warmup_events,
                                   replicas=self.replicas)
        if self.policy is not None:
            result = run_policy_sweep(session, chunk.axes, self.policy,
                                      workers=workers)
        else:
            result = session.sweep(chunk.axes, workers=workers)
        payload: Dict[str, Any] = {
            "engine": result.engine,
            "currents": np.asarray(result.currents, dtype=float),
            "stderrs": None if result.stderrs is None
            else np.asarray(result.stderrs, dtype=float),
        }
        statuses = getattr(result, "statuses", None)
        if statuses is not None:
            payload["statuses"] = [record.as_dict() for record in statuses]
        return payload

    def _valid_payload(self, chunk: SweepChunk,
                       payload: Optional[Dict]) -> bool:
        """Whether a cached chunk payload is shaped like this chunk's result."""
        if payload is None:
            return False
        return column_length(payload.get("currents")) == len(chunk.axes) \
            and payload.get("engine") == self.engine.name

    def run(self, *, workers: int = 1) -> SweepResult:
        """Run (or resume) the sweep, persisting each finished chunk.

        Parameters
        ----------
        workers:
            Worker processes forwarded to each chunk's sweep.

        Returns
        -------
        SweepResult
            The merged full-axes result; bit-identical whether or not the
            run resumed from checkpoints.
        """
        self.chunks_computed = 0
        self.chunks_resumed = 0
        current_chunks: List[np.ndarray] = []
        stderr_chunks: List[Optional[np.ndarray]] = []
        statuses: List[PointRecord] = []
        any_statuses = False
        for chunk in self.chunk_plan():
            payload = self.cache.load(chunk.key)
            if self._valid_payload(chunk, payload):
                self.chunks_resumed += 1
                _LOG.info("checkpoint: resumed chunk %d [%s]",
                          chunk.index, chunk.key[:12])
            else:
                payload = self._compute_chunk(chunk, workers=workers)
                self.cache.store(chunk.key, payload)
                self.chunks_computed += 1
            assert payload is not None
            current_chunks.append(np.asarray(payload["currents"], float))
            stderr_chunks.append(payload.get("stderrs"))
            chunk_statuses = payload.get("statuses")
            if chunk_statuses is not None:
                any_statuses = True
                for entry in chunk_statuses:
                    record = PointRecord.from_dict(entry)
                    statuses.append(dataclasses.replace(
                        record, index=record.index + chunk.start))
        if any(values is not None for values in stderr_chunks):
            stderrs: Optional[np.ndarray] = np.concatenate([
                np.full(len(chunk_values), np.nan)
                if chunk_values is None else np.asarray(chunk_values, float)
                for chunk_values in stderr_chunks])
        else:
            stderrs = None
        currents = np.concatenate(current_chunks) if current_chunks \
            else np.empty(0)
        return SweepResult(
            axes=self.axes, currents=currents,
            stderrs=stderrs, engine=self.engine.name,
            statuses=tuple(statuses) if any_statuses else None)


def run_checkpointed_sweep(engine: Union[str, Engine], device: SETTransistor,
                           axes: SweepAxes, *, cache: ResultCache,
                           temperature: float, seed: Optional[int] = None,
                           chunk_size: int = 64,
                           policy: Optional[FailurePolicy] = None,
                           workers: int = 1,
                           **bind_kwargs: Any) -> SweepResult:
    """One-call convenience wrapper around :class:`CheckpointedSweep`.

    Parameters
    ----------
    engine, device, axes, cache, temperature, seed, chunk_size, policy:
        See :class:`CheckpointedSweep`.
    workers:
        Worker processes forwarded to each chunk's sweep.
    bind_kwargs:
        ``background_charge``/``max_events``/``warmup_events``/``replicas``.

    Returns
    -------
    SweepResult
        The merged (possibly resumed) result.
    """
    sweep = CheckpointedSweep(engine, device, axes, cache=cache,
                              temperature=temperature, seed=seed,
                              chunk_size=chunk_size, policy=policy,
                              **bind_kwargs)
    return sweep.run(workers=workers)


__all__ = [
    "CheckpointedSweep",
    "SweepChunk",
    "derive_chunk_seed",
    "run_checkpointed_sweep",
]
