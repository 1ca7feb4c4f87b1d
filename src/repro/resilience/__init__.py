"""repro.resilience: the fault-tolerant execution layer.

The paper's headline workloads are hour-scale stochastic and sparse-solver
jobs; this package is what lets them survive the failures such jobs actually
hit — a solver that will not converge at one bias point, a crashed worker
pool, a preempted process, a corrupted cache artifact — without giving up
determinism or the engines' fast paths.  Five pieces:

* :mod:`~repro.resilience.policy` — :class:`FailurePolicy` (retry/backoff,
  per-point timeouts, failure budgets, the non-finite health guard) and the
  typed per-point :class:`PointRecord` statuses partial sweeps carry;
* :mod:`~repro.resilience.execution` — the optimistic executor behind
  ``Session.sweep(..., policy=...)`` and ``Session.stream(..., policy=...)``:
  fast path first, per-point salvage only on failure;
* :mod:`~repro.resilience.checkpoint` — :class:`CheckpointedSweep`:
  content-hashed, deterministically seeded chunks persisted through the
  result cache, so killed sweeps resume bit-identically;
* :mod:`~repro.resilience.chunks` — :func:`run_chunks`, the one chunk
  executor (cache round trip, counters, process pool, chunk-failure
  contract) behind checkpointed sweeps and design scans;
* :mod:`~repro.resilience.faults` + :mod:`~repro.resilience.events` — the
  deterministic fault-injection harness driving the chaos test suite, and
  the structured degradation events every fallback rung emits.

See ``docs/robustness.md`` for the user-facing guide.
"""

from typing import Any, List

from .events import (
    DegradationEvent,
    capture_degradations,
    emit_degradation,
    subscribe,
    unsubscribe,
)
from .faults import (
    SITES,
    FaultInjector,
    FaultSpec,
    active_injector,
    inject,
    inject_value,
)
from .policy import (
    SOLVED_STATUSES,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    VALID_STATUSES,
    FailurePolicy,
    PointRecord,
    empty_records,
)

#: Names resolved lazily from the execution/checkpoint submodules — those
#: import :mod:`repro.engines`, which imports this package's leaf modules,
#: so eager imports here would be circular.
_LAZY = {
    "run_policy_sweep": "execution",
    "solve_point_with_policy": "execution",
    "stream_with_policy": "execution",
    "CheckpointedSweep": "checkpoint",
    "SweepChunk": "checkpoint",
    "run_chunks": "chunks",
    "run_checkpointed_sweep": "checkpoint",
}


def __getattr__(name: str) -> Any:
    """Resolve executor/checkpoint names lazily (import-cycle safety)."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__() -> List[str]:
    """Include the lazily resolved names in ``dir(repro.resilience)``."""
    return sorted(list(globals()) + list(_LAZY))


__all__ = [
    "CheckpointedSweep",
    "DegradationEvent",
    "FailurePolicy",
    "FaultInjector",
    "FaultSpec",
    "PointRecord",
    "SITES",
    "SOLVED_STATUSES",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_RETRIED",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "SweepChunk",
    "VALID_STATUSES",
    "active_injector",
    "capture_degradations",
    "emit_degradation",
    "empty_records",
    "inject",
    "inject_value",
    "run_checkpointed_sweep",
    "run_chunks",
    "run_policy_sweep",
    "solve_point_with_policy",
    "stream_with_policy",
    "subscribe",
    "unsubscribe",
]
