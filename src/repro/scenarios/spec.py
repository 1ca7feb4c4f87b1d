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

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError
from ..io.results import content_hash

#: The built-in engine names a spec may request.  ``"auto"`` defers the
#: choice to :func:`repro.scenarios.engines.select_engine`.  Validation goes
#: through :func:`known_engine_names`, so engines registered with
#: :func:`repro.engines.register_engine` are accepted too — this tuple is
#: the documented built-in set (and the CLI's completion hint), not the
#: source of truth.
ENGINES = ("auto", "montecarlo", "ensemble", "master", "analytic")


def known_engine_names() -> Tuple[str, ...]:
    """``("auto",)`` plus every engine currently in the registry.

    The single source of truth for spec-level engine validation: a backend
    registered via :func:`repro.engines.register_engine` becomes a legal
    ``ScenarioSpec.engine`` value immediately, and a retired name in
    :data:`repro.engines.registry.ENGINE_ALIASES` stays legal.
    """
    from ..engines.registry import ENGINE_ALIASES, engine_names

    return ("auto",) + tuple(engine_names()) + tuple(ENGINE_ALIASES)


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
        _reject_unknown_keys("sweep axis", payload,
                             ("source", "start", "stop", "points", "endpoint",
                              "values", "unit"))
        values = payload.get("values")
        with _coercion_errors("sweep axis"):
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
        _reject_unknown_keys("budget", payload,
                             ("max_events", "warmup_events", "replicas",
                              "workers"))
        with _coercion_errors("budget"):
            return cls(max_events=int(payload.get("max_events", 20_000)),
                       warmup_events=int(payload.get("warmup_events", 1_000)),
                       replicas=int(payload.get("replicas", 0)),
                       workers=int(payload.get("workers", 1)))


@dataclass(frozen=True)
class ScenarioSpec:
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

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario spec needs a name")
        known = known_engine_names()
        if self.engine not in known:
            raise ValidationError(
                f"unknown engine {self.engine!r}; choose from {known}")
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
        """Build a spec from a plain dict (the JSON/TOML document root).

        Unknown keys are rejected rather than silently dropped: a typo in a
        spec document must not fall back to a default and then be cached as
        if the author's intent had been honoured.
        """
        _reject_unknown_keys("scenario spec", payload,
                             ("name", "engine", "temperature", "device",
                              "sweeps", "observables", "seed", "budget",
                              "params"))
        try:
            name = str(payload["name"])
        except KeyError:
            raise ValidationError("scenario document needs a 'name'") from None
        observables = payload.get("observables", ())
        if isinstance(observables, str):
            raise ValidationError(
                "'observables' must be a list of names, not a single string")
        with _coercion_errors("scenario spec"):
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

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "ScenarioSpec":
        """Parse a spec from JSON text or a ``.json`` file path."""
        text = _read_maybe_path(source)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_toml(cls, source: Union[str, Path]) -> "ScenarioSpec":
        """Parse a spec from TOML text or a ``.toml`` file path.

        Uses the standard-library ``tomllib`` (Python 3.11+) with a
        ``tomli`` fallback on 3.10; without either, use JSON specs.
        """
        tomllib = _toml_parser()
        text = _read_maybe_path(source)
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ValidationError(f"invalid scenario TOML: {error}") from None
        # Allow the spec to live under a [scenario] table or at the root.
        if "scenario" in payload and isinstance(payload["scenario"], dict):
            payload = payload["scenario"]
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec file, picking the parser from the extension."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            return cls.from_toml(path)
        return cls.from_json(path)

    # ----------------------------------------------------------------- hashing

    def canonical_json(self) -> str:
        """Stable JSON form: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 hash of :meth:`canonical_json` — the cache identity."""
        return content_hash(self.canonical_json())


@contextlib.contextmanager
def _coercion_errors(label: str):
    """Turn bare ``float()``/``int()`` failures into :class:`ValidationError`.

    :class:`ValidationError` itself passes through untouched (it is not a
    :class:`ValueError`), so field-validation messages keep their detail.
    """
    try:
        yield
    except (TypeError, ValueError) as error:
        raise ValidationError(f"invalid {label} value: {error}") from None


def _toml_parser():
    """The available TOML parser module (``tomllib``, or ``tomli`` on 3.10)."""
    try:
        import tomllib
        return tomllib
    except ModuleNotFoundError:
        try:
            import tomli
            return tomli
        except ModuleNotFoundError:
            raise ValidationError(
                "TOML spec documents need Python >= 3.11 (tomllib) or the "
                "'tomli' package; use a JSON spec instead") from None


def _reject_unknown_keys(label: str, payload: Mapping,
                         known: Sequence[str]) -> None:
    """Raise :class:`ValidationError` when a document carries unknown keys."""
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {label} key(s) {unknown}; known keys: {sorted(known)}")


def _read_maybe_path(source: Union[str, Path]) -> str:
    """Return file contents when ``source`` is an existing path, else ``source``."""
    if isinstance(source, Path):
        try:
            return source.read_text()
        except OSError as error:
            raise ValidationError(
                f"cannot read scenario spec file {source}: {error}") from None
    candidate = Path(source)
    try:
        if candidate.is_file():
            return candidate.read_text()
    except OSError:
        pass
    return str(source)


__all__ = ["Budget", "ENGINES", "ScenarioSpec", "SweepAxis",
           "known_engine_names"]
