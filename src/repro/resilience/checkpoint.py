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
*deterministic derived seed* — :func:`~repro.io.results.derive_seed` of
the root seed and the chunk's start index — instead of sharing one warm
random stream whose state would depend on how many chunks already ran.
Whatever chunk size you pick, the result is a pure function of ``(spec,
root seed, chunk size)``; the chunk size is part of the content hash, so
results computed at different chunk sizes never alias in the cache.

Chunks run through :func:`~repro.resilience.chunks.run_chunks` under its
chunk-failure contract; a chunk lost under a policy comes back as NaN
currents (and NaN stderrs where the engine reports them) with ``skipped``
status records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..engines.base import Engine, SweepAxes, SweepResult
from ..errors import CheckpointError
from ..io.results import ResultCache, column_length, content_hash, \
    derive_seed
from .chunks import ChunkCounts, run_chunks
from .execution import run_policy_sweep
from .faults import inject
from .policy import FailurePolicy, PointRecord, empty_records


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


class CheckpointedSweep(ChunkCounts):
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
        Root seed; each chunk derives its own as
        :func:`~repro.io.results.derive_seed` of the root seed and the
        chunk's start index.
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

    # ------------------------------------------------------------ identity

    def _run_hash(self) -> str:
        """Content hash of everything every chunk's numbers depend on."""
        return content_hash({
            "kind": "checkpoint-sweep",
            "engine": self.engine.name,
            "device": dataclasses.asdict(self.device),
            "temperature": self.temperature,
            "background_charge": self.background_charge,
            "root_seed": self.seed,
            "chunk_size": self.chunk_size,
            "gate_axis": content_hash(
                np.asarray(self.axes.gates, dtype="<f8").tobytes()),
            "drain_voltage": self.axes.drain_voltage,
            "max_events": self.max_events,
            "warmup_events": self.warmup_events,
            "replicas": self.replicas,
            "policy": None if self.policy is None else self.policy.as_dict(),
        })

    def chunk_plan(self) -> List[SweepChunk]:
        """The sweep's chunks, in order, with derived seeds and cache keys.

        A chunk's key hashes the run's hash with its ``start`` and point
        count, so the run context is serialised once per plan.
        """
        chunks: List[SweepChunk] = []
        gates = self.axes.gates
        run_hash = self._run_hash()
        for ordinal, start in enumerate(range(0, len(gates),
                                              self.chunk_size)):
            axes = SweepAxes(gates[start:start + self.chunk_size],
                             self.axes.drain_voltage)
            key = self.cache.key_for(content_hash(
                f"{run_hash}:{start}:{len(axes)}"))
            chunks.append(SweepChunk(index=ordinal, start=start, axes=axes,
                                     seed=None if self.seed is None
                                     else derive_seed(self.seed, start),
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
        payload: Dict[str, Any] = {"engine": result.engine,
                                   "currents": result.currents,
                                   "stderrs": result.stderrs}
        if result.statuses is not None:
            payload["statuses"] = [record.as_dict()
                                   for record in result.statuses]
        return payload

    def _valid_payload(self, chunk: SweepChunk,
                       payload: Dict[str, Any]) -> bool:
        """Whether a cached chunk payload is shaped like this chunk's result."""
        return column_length(payload.get("currents")) == len(chunk.axes) \
            and payload.get("engine") == self.engine.name

    def run(self, *, workers: int = 1) -> SweepResult:
        """Run (or resume) the sweep, persisting each finished chunk.

        Parameters
        ----------
        workers:
            Worker processes forwarded to each chunk's sweep (chunks
            themselves run one after another in this process).

        Returns
        -------
        SweepResult
            The merged full-axes result; bit-identical whether or not the
            run resumed from checkpoints, and partial (NaN currents,
            ``skipped`` statuses) where chunks were lost under the policy.
        """
        plan = self.chunk_plan()
        payloads = run_chunks(
            plan, lambda chunk: self._compute_chunk(chunk, workers=workers),
            self._valid_payload, cache=self.cache, policy=self.policy,
            workers=1, counts=self)
        reported = any(payload is not None and payload.get("stderrs")
                       is not None for payload in payloads)
        currents, stderrs, statuses = [], [], []
        for chunk, payload in zip(plan, payloads):
            count = len(chunk.axes)
            if payload is None:  # lost under the policy
                payload = {"currents": np.full(count, np.nan),
                           "statuses": [record.as_dict()
                                        for record in empty_records(count)]}
            currents.append(payload["currents"])
            if reported:
                stderrs.append(np.full(count, np.nan)
                               if payload.get("stderrs") is None
                               else payload["stderrs"])
            statuses.extend(PointRecord.from_dict(
                {**entry, "index": entry["index"] + chunk.start})
                for entry in payload.get("statuses") or ())
        return SweepResult(
            axes=self.axes,
            currents=np.concatenate(currents) if currents else np.empty(0),
            stderrs=np.concatenate(stderrs) if reported else None,
            engine=self.engine.name,
            statuses=None if self.policy is None else tuple(statuses))


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
    "run_checkpointed_sweep",
]
