"""Engine selection and session binding for scenario runs.

The execution machinery itself lives in :mod:`repro.engines` — the
:class:`~repro.engines.base.Engine` protocol, the bound
:class:`~repro.engines.base.Session` objects, and the registry.  This module
is the thin scenario-side glue:

* :func:`select_engine` resolves ``engine="auto"`` for a spec by
  *capability introspection* over the registry (stochasticity, ensemble
  support, exactness class, cost model) — no engine names are hard-coded in
  the selection rules;
* :class:`EngineContext` hands every scenario compute function a
  pre-resolved engine plus :meth:`EngineContext.session` /
  :meth:`EngineContext.sweep` conveniences that fold the spec's seed and
  budget into :meth:`~repro.engines.base.Engine.bind`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..devices.set_transistor import SETTransistor
from ..engines import (
    EXACTNESS_APPROXIMATE,
    Session,
    SweepAxes,
    SweepResult,
    get_engine,
    list_engines,
)
from ..errors import ValidationError
from .spec import ScenarioSpec

#: Observable name fragments that mark a scenario as intrinsically
#: stochastic: it needs trajectories / error bars, so only engines whose
#: capabilities declare ``stochastic`` can produce it.
_STOCHASTIC_MARKERS = ("stderr", "noise", "bits", "entropy", "telegraph",
                      "trajectory")

#: Above this many sweep points the cheapest approximate engine is preferred
#: for ``auto`` scenarios that tolerate the sequential-tunnelling
#: approximation (compact sweeps cost microseconds per point versus
#: milliseconds for a master-equation solve — the ~100x gap measured in
#: BENCH_master.json).
_ANALYTIC_POINT_CUTOFF = 4096


def _cheapest(engines):
    """The engine with the lowest declared per-point cost.

    Ties between capability-equivalent candidates (e.g. a third-party
    backend alongside a built-in) are resolved by the cost model, not by
    registry order, so registering an extra engine never silently hijacks
    ``auto`` selection unless it also declares itself cheaper.
    """
    return min(engines,
               key=lambda engine: engine.capabilities().cost.per_point_s)


def _selectable_engines():
    """Registered engines whose capabilities declare them ``available``.

    Engines gated on optional dependencies (e.g. the compiled-kernel
    engines without a native backend) register unconditionally so that
    explicit requests give a clear error, but ``auto`` selection only
    ever considers engines that can actually deliver their declared cost
    model.
    """
    return [engine for engine in list_engines()
            if engine.capabilities().available]


def _stochastic_engine_name(replicas: int) -> str:
    """The stochastic engine matching a replica budget, by capability.

    Replica budgets >= 2 want an ensemble-capable stochastic engine
    (replica spread beats block averaging at equal cost); otherwise a
    plain single-trajectory one.
    """
    stochastic = [engine for engine in _selectable_engines()
                  if engine.capabilities().stochastic]
    if not stochastic:
        raise ValidationError("no stochastic engine registered")
    want_ensemble = replicas >= 2
    matching = [engine for engine in stochastic
                if engine.capabilities().supports_ensemble == want_ensemble]
    return _cheapest(matching or stochastic).name


def _cheapest_approximate_name() -> Optional[str]:
    """The cheapest-per-point approximate engine, or ``None`` if none exists."""
    approximate = [engine for engine in _selectable_engines()
                   if engine.capabilities().exactness == EXACTNESS_APPROXIMATE]
    if not approximate:
        return None
    return _cheapest(approximate).name


def _exact_deterministic_name() -> str:
    """The exact deterministic engine (the heuristic's default answer)."""
    candidates = [engine for engine in _selectable_engines()
                  if not engine.capabilities().stochastic
                  and engine.capabilities().exactness != EXACTNESS_APPROXIMATE]
    if not candidates:
        raise ValidationError("no exact deterministic engine registered")
    return _cheapest(candidates).name


def select_engine(spec: ScenarioSpec) -> str:
    """Resolve a spec's engine request to a concrete engine name.

    The heuristic works purely on registry capability introspection
    (:meth:`repro.engines.base.Engine.capabilities`), in priority order:

    1. an explicit engine request wins;
    2. stochastic observables (``*stderr*``, ``*noise*``, ``*bits*``, ...)
       need trajectories: the ensemble-capable stochastic engine when the
       budget carries >= 2 replicas (replica spread beats block averaging
       at equal cost), otherwise the single-trajectory one — always the
       cheapest *available* candidate, so the compiled-kernel engines are
       adopted automatically exactly when their backend loaded;
    3. very large sweeps (> 4096 points) that a scenario marked as
       approximation-tolerant (``params["fidelity"] == "fast"``) go to the
       cheapest approximate engine;
    4. everything else gets the exact deterministic engine — exact
       sequential tunnelling, and its sparse structure-reusing path keeps
       even 10^4-state windows routine.

    Parameters
    ----------
    spec:
        The scenario spec to resolve.

    Returns
    -------
    str
        A concrete registered engine name (any entry of
        :func:`repro.engines.registry.engine_names` whose capabilities
        declare it available).
    """
    if spec.engine != "auto":
        return spec.engine
    observed = " ".join(spec.observables).lower()
    if any(marker in observed for marker in _STOCHASTIC_MARKERS):
        return _stochastic_engine_name(spec.budget.replicas)
    total_points = 1
    for axis in spec.sweeps:
        total_points *= (len(axis.values) if axis.values is not None
                         else max(axis.points, 1))
    if (spec.params.get("fidelity") == "fast"
            and total_points > _ANALYTIC_POINT_CUTOFF):
        approximate = _cheapest_approximate_name()
        if approximate is not None:
            return approximate
    return _exact_deterministic_name()


class EngineContext:
    """Execution context handed to every scenario compute function.

    Parameters
    ----------
    spec:
        The (engine-resolved or ``auto``) spec being run.
    log:
        Progress callback (the runner wires this to the CLI logger).
    """

    def __init__(self, spec: ScenarioSpec, log=None) -> None:
        self.spec = spec
        self.engine = select_engine(spec)
        if self.engine == "auto":
            raise ValidationError(f"unresolvable engine {self.engine!r}")
        get_engine(self.engine)   # unknown names fail here, not mid-compute
        self._log = log

    def log(self, message: str) -> None:
        """Emit one progress line through the runner's logger."""
        if self._log is not None:
            self._log(message)

    # ------------------------------------------------------------- sessions

    def transistor(self, **overrides) -> SETTransistor:
        """Build the spec's SET device (``spec.device`` plus overrides)."""
        parameters = dict(self.spec.device)
        parameters.update(overrides)
        return SETTransistor(**parameters)

    def session(self, device: Optional[SETTransistor] = None, *,
                temperature: Optional[float] = None,
                background_charge: Optional[float] = None) -> Session:
        """Bind the selected engine to a device under the spec's conditions.

        The spec's seed and budget (event counts, replicas) are folded into
        :meth:`~repro.engines.base.Engine.bind`, so every scenario gets the
        same reproducible binding regardless of which engine was resolved.

        Parameters
        ----------
        device:
            The SET to bind (default: :meth:`transistor`).
        temperature:
            Override of ``spec.temperature``, in kelvin.
        background_charge:
            Optional island offset charge in coulomb.

        Returns
        -------
        repro.engines.base.Session
            The bound, structure-reusing session.
        """
        budget = self.spec.budget
        return get_engine(self.engine).bind(
            device if device is not None else self.transistor(),
            temperature=(self.spec.temperature if temperature is None
                         else float(temperature)),
            seed=self.spec.seed,
            background_charge=background_charge,
            max_events=budget.max_events,
            warmup_events=budget.warmup_events,
            replicas=budget.replicas)

    def sweep(self, device: SETTransistor, gate_voltages: Sequence[float],
              drain_voltage: float, *,
              temperature: Optional[float] = None,
              background_charge: Optional[float] = None) -> SweepResult:
        """Gate sweep of the drain current through the selected engine.

        Binds a fresh session (see :meth:`session`) and runs
        :meth:`~repro.engines.base.Session.sweep` with the spec budget's
        worker fan-out — every engine stays on its fast path by
        construction.

        Parameters
        ----------
        device:
            The SET to sweep.
        gate_voltages:
            Gate bias values, in volt.
        drain_voltage:
            Fixed drain bias, in volt.
        temperature:
            Override of ``spec.temperature``.
        background_charge:
            Optional island offset charge in coulomb.

        Returns
        -------
        repro.engines.base.SweepResult
            Currents (and, for stochastic engines, standard errors) over
            the gate axis.
        """
        bound = self.session(device, temperature=temperature,
                             background_charge=background_charge)
        axes = SweepAxes(gate_voltages, drain_voltage)
        return bound.sweep(axes, workers=self.spec.budget.workers)


__all__ = ["EngineContext", "select_engine"]
