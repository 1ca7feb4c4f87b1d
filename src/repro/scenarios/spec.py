"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the complete, serialisable description of one
workload: the device parameters, the engine to use (or ``"auto"``), the sweep
axes, the observables the scenario promises to produce, the random seed, and
the stochastic-budget knobs.  Specs load from plain dicts, JSON, or TOML, and
canonicalise to a stable JSON form whose SHA-256 hash keys the result cache —
two specs with the same content always hash identically, and any change to
any field produces a different hash (and therefore a cache miss).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..io.documents import (
    SpecDocument,
    coercion_errors,
    known_engine_names,
    reject_unknown_keys,
)

#: The built-in engine names a spec may request.  ``"auto"`` defers the
#: choice to :func:`repro.scenarios.engines.select_engine`.  Validation goes
#: through :func:`known_engine_names`, so engines registered with
#: :func:`repro.engines.register_engine` are accepted too — this tuple is
#: the documented built-in set (and the CLI's completion hint), not the
#: source of truth.
ENGINES = ("auto", "montecarlo", "ensemble", "master", "analytic")


@dataclass(frozen=True)
class SweepAxis:
    """One swept quantity of a scenario.

    Either an explicit value list (``values``) or a linear grid
    (``start``/``stop``/``points``/``endpoint``) — exactly one of the two
    forms must be used.

    Parameters
    ----------
    source:
        Name of the swept quantity — a voltage-source element name such as
        ``"VG"``, or a scenario-defined parameter name.
    start, stop:
        Grid end points (used when ``values`` is ``None``).
    points:
        Number of grid points.
    endpoint:
        Whether ``stop`` is included (``numpy.linspace`` semantics).
    values:
        Explicit values; overrides the grid fields.
    unit:
        Unit label for documentation and tables (default volt).
    """

    source: str
    start: float = 0.0
    stop: float = 0.0
    points: int = 0
    endpoint: bool = True
    values: Optional[Tuple[float, ...]] = None
    unit: str = "V"

    def __post_init__(self) -> None:
        if self.values is not None:
            if len(self.values) == 0:
                raise ValidationError(
                    f"sweep axis {self.source!r} has an empty values list")
            object.__setattr__(self, "values",
                               tuple(float(v) for v in self.values))
        elif self.points < 2:
            raise ValidationError(
                f"sweep axis {self.source!r} needs values or points >= 2")

    def grid(self) -> np.ndarray:
        """The axis as a float array."""
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(float(self.start), float(self.stop),
                           int(self.points), endpoint=bool(self.endpoint))

    def to_dict(self) -> Dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        payload: Dict = {"source": self.source, "unit": self.unit}
        if self.values is not None:
            payload["values"] = list(self.values)
        else:
            payload.update(start=self.start, stop=self.stop,
                           points=self.points, endpoint=self.endpoint)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepAxis":
        """Build an axis from a plain dict (JSON/TOML deserialisation)."""
        reject_unknown_keys("sweep axis", payload, cls)
        values = payload.get("values")
        with coercion_errors("sweep axis"):
            return cls(source=str(payload["source"]),
                       start=float(payload.get("start", 0.0)),
                       stop=float(payload.get("stop", 0.0)),
                       points=int(payload.get("points", 0)),
                       endpoint=bool(payload.get("endpoint", True)),
                       values=None if values is None else tuple(values),
                       unit=str(payload.get("unit", "V")))


@dataclass(frozen=True)
class Budget:
    """Stochastic-work and parallelism budget of a scenario.

    Parameters
    ----------
    max_events:
        Monte-Carlo events per estimate (after warm-up).
    warmup_events:
        Events discarded to forget the initial condition.
    replicas:
        Ensemble replica count; ``0`` means single-trajectory estimators.
    workers:
        Worker processes for sweep fan-out (``1`` = in-process).
    """

    max_events: int = 20_000
    warmup_events: int = 1_000
    replicas: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ValidationError("budget.max_events must be >= 1")
        if self.warmup_events < 0:
            raise ValidationError("budget.warmup_events must be >= 0")
        if self.replicas < 0:
            raise ValidationError("budget.replicas must be >= 0")
        if self.workers < 1:
            raise ValidationError("budget.workers must be >= 1")

    def to_dict(self) -> Dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"max_events": self.max_events,
                "warmup_events": self.warmup_events,
                "replicas": self.replicas,
                "workers": self.workers}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Budget":
        """Build a budget from a plain dict."""
        reject_unknown_keys("budget", payload, cls)
        with coercion_errors("budget"):
            return cls(max_events=int(payload.get("max_events", 20_000)),
                       warmup_events=int(payload.get("warmup_events", 1_000)),
                       replicas=int(payload.get("replicas", 0)),
                       workers=int(payload.get("workers", 1)))


@dataclass(frozen=True)
class ScenarioSpec(SpecDocument):
    """Complete declarative description of one workload.

    Parameters
    ----------
    name:
        Registry name of the scenario (``snake_case``).
    engine:
        Any registered engine name, or ``"auto"`` to let the runner pick
        (see :func:`known_engine_names`; the built-ins are
        :data:`ENGINES`).
    temperature:
        Operating temperature in kelvin.
    device:
        Device parameters (capacitances in farad, resistances in ohm, ...).
        Interpreted by the scenario's compute function; for SET-based
        scenarios the keys mirror :class:`repro.devices.SETTransistor`.
    sweeps:
        The swept axes, in order.
    observables:
        Names of the metrics the scenario promises to produce (documented in
        ``docs/scenarios.md``; ``repro describe`` prints them).
    seed:
        Root seed for every stochastic engine the scenario touches.
    budget:
        Event/replica/worker budget.
    params:
        Scenario-specific extra knobs (plain JSON-able values only).
    """

    name: str
    engine: str = "auto"
    temperature: float = 1.0
    device: Mapping[str, float] = field(default_factory=dict)
    sweeps: Tuple[SweepAxis, ...] = ()
    observables: Tuple[str, ...] = ()
    seed: int = 1
    budget: Budget = field(default_factory=Budget)
    params: Mapping[str, Any] = field(default_factory=dict)

    kind = "scenario"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "device", dict(self.device))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "observables",
                           tuple(str(o) for o in self.observables))

    # ------------------------------------------------------------ conversions

    def with_engine(self, engine: Optional[str]) -> "ScenarioSpec":
        """A copy with the engine replaced (``None`` returns ``self``)."""
        if engine is None or engine == self.engine:
            return self
        return dataclasses.replace(self, engine=engine)

    def axis(self, source: str) -> SweepAxis:
        """Look up a sweep axis by its ``source`` name."""
        for axis in self.sweeps:
            if axis.source == source:
                return axis
        raise ValidationError(
            f"scenario {self.name!r} has no sweep axis {source!r}; "
            f"axes: {[a.source for a in self.sweeps]}")

    def to_dict(self) -> Dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "engine": self.engine,
            "temperature": self.temperature,
            "device": dict(self.device),
            "sweeps": [axis.to_dict() for axis in self.sweeps],
            "observables": list(self.observables),
            "seed": self.seed,
            "budget": self.budget.to_dict(),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioSpec":
        """Build a spec from a plain dict; unknown keys are rejected."""
        name = cls.document_name(payload)
        observables = payload.get("observables", ())
        if isinstance(observables, str):
            raise ValidationError(
                "'observables' must be a list of names, not a single string")
        with coercion_errors("scenario spec"):
            return cls(
                name=name,
                engine=str(payload.get("engine", "auto")),
                temperature=float(payload.get("temperature", 1.0)),
                device=dict(payload.get("device", {})),
                sweeps=tuple(SweepAxis.from_dict(axis)
                             for axis in payload.get("sweeps", ())),
                observables=tuple(observables),
                seed=int(payload.get("seed", 1)),
                budget=Budget.from_dict(payload.get("budget", {})),
                params=dict(payload.get("params", {})),
            )


__all__ = ["Budget", "ENGINES", "ScenarioSpec", "SweepAxis",
           "known_engine_names"]
