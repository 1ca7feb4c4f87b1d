"""repro.engines: the unified simulation-engine API.

This package is the canonical contract between workloads and backends.  The
pattern is always the same three steps::

    from repro.engines import get_engine, SweepAxes

    engine = get_engine("master")                 # resolve by name
    session = engine.bind(device, temperature=1.0)  # bind device + conditions
    result = session.sweep(SweepAxes(gates, drain_voltage=2e-3))

* :func:`get_engine` / :func:`list_engines` / :func:`register_engine` —
  the registry every layer (scenarios, CLI, benchmarks) resolves through;
* :func:`select_engine` — the one ``auto`` selector (scenarios and design
  scans): the cheapest engine that meets a request;
* :class:`Engine` — ``capabilities()`` for introspection (exactness class,
  stochasticity, ensemble support, cost model), ``bind()`` for creating
  sessions, and ``solve_devices()`` for solving a whole
  :class:`DeviceTable` of devices at once (one array evaluation on the
  analytic engine, a per-device ``bind`` + ``solve`` loop elsewhere);
* :class:`Session` — ``solve(bias)``, ``sweep(axes, workers=...)``, and the
  incremental ``stream(axes)`` iterator, all structure-reusing;
* :class:`Observables` / :class:`SweepResult` — the common result model
  (``SweepResult.record(...)`` bridges to the archival
  :class:`~repro.io.results.SweepRecord`).

``python -m repro engines`` prints every registered engine with its
capability flags; ``docs/engines.md`` documents the protocol, the crossover
guidance, and the migration path from the pre-protocol entry points.
"""

from .base import (
    EXACTNESS_APPROXIMATE,
    EXACTNESS_CLASSES,
    EXACTNESS_EXACT_SEQUENTIAL,
    EXACTNESS_STOCHASTIC_FULL,
    BiasPoint,
    CostModel,
    DeviceTable,
    Engine,
    EngineCapabilities,
    Observables,
    Session,
    SweepAxes,
    SweepResult,
)
from .registry import (
    ENGINE_ALIASES,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    select_engine,
    unregister_engine,
)


def analytic_model_for(device, temperature, background_charge=None):
    """The compact-model twin of a SET device (adapter-module re-export).

    See :func:`repro.engines.adapters.analytic_model_for`; this wrapper
    defers the adapter import so ``import repro.engines`` stays cheap.
    """
    from .adapters import analytic_model_for as _impl

    return _impl(device, temperature, background_charge=background_charge)


__all__ = [
    "BiasPoint",
    "CostModel",
    "DeviceTable",
    "ENGINE_ALIASES",
    "EXACTNESS_APPROXIMATE",
    "EXACTNESS_CLASSES",
    "EXACTNESS_EXACT_SEQUENTIAL",
    "EXACTNESS_STOCHASTIC_FULL",
    "Engine",
    "EngineCapabilities",
    "Observables",
    "Session",
    "SweepAxes",
    "SweepResult",
    "analytic_model_for",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "select_engine",
    "unregister_engine",
]
