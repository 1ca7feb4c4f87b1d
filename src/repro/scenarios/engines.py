"""Engine selection and session binding for scenario runs.

The execution machinery itself lives in :mod:`repro.engines` — the
:class:`~repro.engines.base.Engine` protocol, the bound
:class:`~repro.engines.base.Session` objects, the registry and its ``auto``
selector.  This module is the thin scenario-side glue:

* :func:`select_engine` maps a spec to an engine request (stochastic
  observables, replica budget, approximation tolerance) and resolves it
  with :func:`repro.engines.select_engine`;
* :class:`EngineContext` hands every scenario compute function a
  pre-resolved engine plus :meth:`EngineContext.session` /
  :meth:`EngineContext.sweep` conveniences that fold the spec's seed and
  budget into :meth:`~repro.engines.base.Engine.bind`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..devices.set_transistor import SETTransistor
from ..engines import Session, SweepAxes, SweepResult, get_engine
from ..engines import select_engine as select_by_capability
from .spec import ScenarioSpec

#: Observable name fragments that mark a scenario as intrinsically
#: stochastic: it needs trajectories / error bars, so only engines whose
#: capabilities declare ``stochastic`` can produce it.
_STOCHASTIC_MARKERS = ("stderr", "noise", "bits", "entropy", "telegraph",
                      "trajectory")

#: Above this many sweep points a scenario that tolerates the
#: sequential-tunnelling approximation (``params["fidelity"] == "fast"``)
#: accepts approximate engines (compact sweeps cost microseconds per point).
_ANALYTIC_POINT_CUTOFF = 4096


def select_engine(spec: ScenarioSpec) -> str:
    """Resolve a spec's engine request to a concrete engine name.

    An explicit engine wins (an alias resolves to the engine it names).
    ``auto`` becomes a request to :func:`repro.engines.select_engine`:

    * stochastic observables (``*stderr*``, ``*noise*``, ``*bits*``, ...)
      need trajectories, with the spec budget's replica count;
    * sweeps of more than 4096 points on scenarios marked
      ``params["fidelity"] == "fast"`` accept approximate physics;
    * everything else asks for an exact deterministic engine.

    Parameters
    ----------
    spec:
        The scenario spec to resolve.

    Returns
    -------
    str
        A registered engine name.
    """
    observed = " ".join(spec.observables).lower()
    total_points = math.prod(len(axis.grid()) for axis in spec.sweeps)
    return select_by_capability(
        spec.engine,
        stochastic=any(marker in observed for marker in _STOCHASTIC_MARKERS),
        replicas=spec.budget.replicas,
        approximate=(spec.params.get("fidelity") == "fast"
                     and total_points > _ANALYTIC_POINT_CUTOFF)).name


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
        self.engine = select_engine(spec)   # unknown names fail here
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
