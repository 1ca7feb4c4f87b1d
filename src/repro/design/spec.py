"""Declarative design-space specifications.

A :class:`DesignSpec` is the complete, serialisable description of one
*device scan*: the base device, the geometry/environment axes to sweep
(:class:`DeviceAxis` — junction and gate capacitances, tunnel resistances,
temperature, background charge, drain bias), the constraint set every grid
point is classified against, the optional component-tolerance model, and the
engine/seed/budget knobs.  Like :class:`~repro.scenarios.spec.ScenarioSpec`,
a design spec is a :class:`repro.io.documents.SpecDocument`: it loads from
plain dicts, JSON, or TOML and canonicalises to a stable JSON form whose
SHA-256 hash keys the result cache — the same hash discipline means
checkpointed scan chunks and whole feasibility maps are content-addressed
artifacts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..errors import ValidationError
from ..io.documents import SpecDocument, coercion_errors, reject_unknown_keys
from ..scenarios.spec import Budget

#: Device-geometry parameters a :class:`DeviceAxis` may sweep (the numeric
#: fields of :class:`~repro.devices.set_transistor.SETTransistor`).
DEVICE_PARAMETERS = (
    "junction_capacitance",
    "gate_capacitance",
    "junction_resistance",
    "drain_capacitance",
    "source_capacitance",
    "drain_resistance",
    "source_resistance",
)

#: Environment parameters a :class:`DeviceAxis` may sweep.
#: ``background_charge_e`` is the island offset charge in units of *e* (the
#: paper's dimensionless ``q0``); ``temperature`` is in kelvin;
#: ``drain_voltage`` in volt.
ENVIRONMENT_PARAMETERS = ("temperature", "background_charge_e",
                          "drain_voltage")

#: Every parameter name a design axis may carry.
SCAN_PARAMETERS = DEVICE_PARAMETERS + ENVIRONMENT_PARAMETERS


@dataclass(frozen=True)
class DeviceAxis:
    """One swept device or environment parameter of a design scan.

    Either an explicit value list (``values``) or a ``start``/``stop``/
    ``points`` grid — exactly one of the two forms.  Grids may be linearly
    or logarithmically spaced (capacitances and resistances span decades;
    ``spacing="log"`` is the natural choice there).

    Parameters
    ----------
    parameter:
        The swept quantity — one of :data:`SCAN_PARAMETERS`.
    start, stop:
        Grid end points (used when ``values`` is ``None``).
    points:
        Number of grid points (>= 2 for the grid form).
    spacing:
        ``"linear"`` (``numpy.linspace``) or ``"log"``
        (``numpy.geomspace``; requires same-sign, non-zero end points).
    values:
        Explicit values; overrides the grid fields.
    """

    parameter: str
    start: float = 0.0
    stop: float = 0.0
    points: int = 0
    spacing: str = "linear"
    values: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        """Validate the parameter name and the grid/values form."""
        if self.parameter not in SCAN_PARAMETERS:
            raise ValidationError(
                f"unknown scan parameter {self.parameter!r}; choose from "
                f"{SCAN_PARAMETERS}")
        if self.spacing not in ("linear", "log"):
            raise ValidationError(
                f"axis {self.parameter!r} spacing must be 'linear' or "
                f"'log', got {self.spacing!r}")
        if self.values is not None:
            if len(self.values) == 0:
                raise ValidationError(
                    f"design axis {self.parameter!r} has an empty values "
                    "list")
            object.__setattr__(self, "values",
                               tuple(float(v) for v in self.values))
        else:
            if self.points < 2:
                raise ValidationError(
                    f"design axis {self.parameter!r} needs values or "
                    "points >= 2")
            if self.spacing == "log" and self.start * self.stop <= 0.0:
                raise ValidationError(
                    f"design axis {self.parameter!r} with log spacing "
                    "needs same-sign, non-zero start/stop")

    def grid(self) -> np.ndarray:
        """The axis as a float array (explicit values or the spaced grid)."""
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.spacing == "log":
            return np.geomspace(float(self.start), float(self.stop),
                                int(self.points))
        return np.linspace(float(self.start), float(self.stop),
                           int(self.points))

    def __len__(self) -> int:
        """Number of grid points on this axis."""
        if self.values is not None:
            return len(self.values)
        return int(self.points)

    def to_dict(self) -> Dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        payload: Dict = {"parameter": self.parameter}
        if self.values is not None:
            payload["values"] = list(self.values)
        else:
            payload.update(start=self.start, stop=self.stop,
                           points=self.points, spacing=self.spacing)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DeviceAxis":
        """Build an axis from a plain dict (JSON/TOML deserialisation)."""
        reject_unknown_keys("design axis", payload, cls)
        values = payload.get("values")
        with coercion_errors("design axis"):
            return cls(parameter=str(payload["parameter"]),
                       start=float(payload.get("start", 0.0)),
                       stop=float(payload.get("stop", 0.0)),
                       points=int(payload.get("points", 0)),
                       spacing=str(payload.get("spacing", "linear")),
                       values=None if values is None else tuple(values))


@dataclass(frozen=True)
class DesignSpec(SpecDocument):
    """Complete declarative description of one design-space scan.

    Parameters
    ----------
    name:
        Identifier of the scan (``snake_case``).
    engine:
        Any registered engine name, or ``"auto"`` to let the scan pick the
        cheapest engine by capability introspection.
    device:
        Base device parameters (:class:`SETTransistor` keyword arguments);
        swept axes override these per grid point.
    axes:
        The swept device/environment axes, in order (grid iteration is
        row-major: the first axis varies slowest).
    constraints:
        Constraint declarations, each a plain dict understood by
        :func:`repro.design.constraints.build_constraints` (``type``,
        ``kind``, ``threshold``, ...).
    temperature:
        Operating temperature in kelvin (unless swept by an axis).
    drain_voltage:
        Drain bias in volt for the on/off operating points (unless swept).
    on_gate_fraction, off_gate_fraction:
        Gate bias of the conducting/blockaded operating points, in units
        of the device's gate period ``e/Cg`` (defaults: peak at one half
        period, blockade at zero).
    seed:
        Root seed; stochastic engines and the tolerance Monte-Carlo derive
        per-point/per-element seeds from it (never from iteration order).
    budget:
        Event/replica/worker budget forwarded to stochastic engines.
    chunk_size:
        Grid points per checkpoint chunk (the resume granularity).
    tolerances:
        Optional component-tolerance model: mapping parameter name ->
        deviation dict (see
        :class:`repro.design.tolerance.ComponentDeviation`).
    tolerance_samples:
        Monte-Carlo samples per design point for yield analysis.
    """

    name: str
    engine: str = "auto"
    device: Mapping[str, float] = field(default_factory=dict)
    axes: Tuple[DeviceAxis, ...] = ()
    constraints: Tuple[Mapping[str, Any], ...] = ()
    temperature: float = 1.0
    drain_voltage: float = 2e-3
    on_gate_fraction: float = 0.5
    off_gate_fraction: float = 0.0
    seed: int = 1
    budget: Budget = field(default_factory=Budget)
    chunk_size: int = 256
    tolerances: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    tolerance_samples: int = 64

    kind = "design"

    def __post_init__(self) -> None:
        """Validate names, axes, constraints, and tolerance declarations."""
        super().__post_init__()
        object.__setattr__(self, "device", dict(self.device))
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "constraints",
                           tuple(dict(c) for c in self.constraints))
        object.__setattr__(self, "tolerances",
                           {str(k): dict(v)
                            for k, v in dict(self.tolerances).items()})
        if not self.axes:
            raise ValidationError("design spec needs at least one axis")
        parameters = [axis.parameter for axis in self.axes]
        if len(set(parameters)) != len(parameters):
            raise ValidationError(
                f"duplicate design axes: {sorted(parameters)}")
        if self.chunk_size < 1:
            raise ValidationError("design chunk_size must be >= 1")
        if self.tolerance_samples < 1:
            raise ValidationError("tolerance_samples must be >= 1")
        if not self.constraints:
            raise ValidationError(
                "design spec needs at least one constraint (a scan without "
                "constraints classifies nothing)")
        for name in self.tolerances:
            if name not in DEVICE_PARAMETERS:
                raise ValidationError(
                    f"tolerance on unknown device parameter {name!r}; "
                    f"choose from {DEVICE_PARAMETERS}")
        # Fail early on malformed constraint/tolerance declarations instead
        # of at the first scanned point.
        from .constraints import build_constraints
        from .tolerance import ToleranceModel

        build_constraints(self.constraints)
        ToleranceModel.from_dict(self.tolerances)

    # ------------------------------------------------------------ geometry

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid shape, one entry per axis (first axis varies slowest)."""
        return tuple(len(axis) for axis in self.axes)

    def __len__(self) -> int:
        """Total number of grid points."""
        return int(np.prod(self.shape))

    def axis_values(self) -> Dict[str, np.ndarray]:
        """Mapping axis parameter -> its grid values."""
        return {axis.parameter: axis.grid() for axis in self.axes}

    def point_parameters(self, flat_index: int) -> Dict[str, float]:
        """The swept parameter values at one flat grid index.

        Parameters
        ----------
        flat_index:
            Row-major index into the grid (first axis slowest).

        Returns
        -------
        dict
            Mapping axis parameter -> value at that point.
        """
        if not 0 <= flat_index < len(self):
            raise ValidationError(
                f"flat index {flat_index} outside the {len(self)}-point "
                "grid")
        multi = np.unravel_index(flat_index, self.shape)
        return {axis.parameter: float(axis.grid()[position])
                for axis, position in zip(self.axes, multi)}

    def base_device(self) -> SETTransistor:
        """The base :class:`SETTransistor` (before axis overrides)."""
        return SETTransistor(**{str(k): float(v)
                                for k, v in self.device.items()})

    # ------------------------------------------------------------ documents

    def to_dict(self) -> Dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "engine": self.engine,
            "device": dict(self.device),
            "axes": [axis.to_dict() for axis in self.axes],
            "constraints": [dict(c) for c in self.constraints],
            "temperature": self.temperature,
            "drain_voltage": self.drain_voltage,
            "on_gate_fraction": self.on_gate_fraction,
            "off_gate_fraction": self.off_gate_fraction,
            "seed": self.seed,
            "budget": self.budget.to_dict(),
            "chunk_size": self.chunk_size,
            "tolerances": {k: dict(v) for k, v in self.tolerances.items()},
            "tolerance_samples": self.tolerance_samples,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DesignSpec":
        """Build a spec from a plain dict; unknown keys are rejected."""
        name = cls.document_name(payload)
        with coercion_errors("design spec"):
            return cls(
                name=name,
                engine=str(payload.get("engine", "auto")),
                device=dict(payload.get("device", {})),
                axes=tuple(DeviceAxis.from_dict(axis)
                           for axis in payload.get("axes", ())),
                constraints=tuple(dict(c)
                                  for c in payload.get("constraints", ())),
                temperature=float(payload.get("temperature", 1.0)),
                drain_voltage=float(payload.get("drain_voltage", 2e-3)),
                on_gate_fraction=float(payload.get("on_gate_fraction", 0.5)),
                off_gate_fraction=float(payload.get("off_gate_fraction",
                                                    0.0)),
                seed=int(payload.get("seed", 1)),
                budget=Budget.from_dict(payload.get("budget", {})),
                chunk_size=int(payload.get("chunk_size", 256)),
                tolerances=dict(payload.get("tolerances", {})),
                tolerance_samples=int(payload.get("tolerance_samples", 64)),
            )

    def replace(self, **changes: Any) -> "DesignSpec":
        """A copy with the given fields replaced (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)


__all__ = [
    "DEVICE_PARAMETERS",
    "DeviceAxis",
    "DesignSpec",
    "ENVIRONMENT_PARAMETERS",
    "SCAN_PARAMETERS",
]
