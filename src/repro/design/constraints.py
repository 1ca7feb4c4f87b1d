"""Constraint classes a design scan classifies grid points against.

Two constraint *kinds*, in the spirit of structured assurance claims:

* **hard** constraints decide feasibility — every hard constraint must be
  satisfied for a grid point to count as a feasible design (intrinsic
  voltage gain above a threshold, on/off current ratio, maximum operating
  temperature above the operating point, on-current floor);
* **diagnostic** constraints never veto a point — they contribute margin
  metrics (e.g. Coulomb-oscillation modulation depth) that quantify *how
  comfortably* a feasible point sits inside the window.

Every constraint evaluates one :class:`DesignPoint` to a
:class:`ConstraintVerdict` carrying the measured value, the threshold, a
boolean, and a signed dimensionless **margin** (positive = satisfied with
room; the feasibility map's robustness margin is the minimum hard-constraint
margin per point).  A constraint's :meth:`Constraint.measure` is one array
implementation: a design point whose fields are arrays (a
:class:`~repro.engines.base.DeviceTable` as its device) is a whole batch of
points, which is how device scans classify a chunk in one pass
(:meth:`Constraint.assess`).  Constraints serialise to the plain dicts
stored inside :class:`~repro.design.spec.DesignSpec`, so the set is part of
the spec's content hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..engines.base import DeviceTable
from ..errors import ValidationError

#: The two constraint kinds.
KINDS = ("hard", "diagnostic")

#: Floor used when normalising ratios so a zero off-current cannot divide
#: by zero (well below any physical SET current in ampere).
_CURRENT_FLOOR = 1e-30


def _decades(ratio: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """``log10(ratio)`` where ``defined``, NaN elsewhere.

    Each element goes through ``math.log10``: NumPy's SIMD ``log10`` can
    differ from it in the last ulp, and margins must not depend on whether
    a point was classified alone or in a batch, nor on the host's SIMD.
    """
    ratio, defined = np.broadcast_arrays(ratio, defined)
    decades = np.full(ratio.shape, math.nan)
    decades[defined] = [math.log10(value)
                        for value in ratio[defined].tolist()]
    return decades


@dataclass(frozen=True)
class DesignPoint:
    """Everything a constraint may look at for one grid point.

    Every field may instead be an array (with a
    :class:`~repro.engines.base.DeviceTable` as the device): the point then
    stands for one batch of grid points, one per row.

    Parameters
    ----------
    device:
        The concrete device at this grid point (axis overrides applied).
    temperature:
        Operating temperature in kelvin.
    drain_voltage:
        Drain bias of the on/off operating points in volt.
    on_current, off_current:
        Drain current at the conducting / blockaded gate bias in ampere
        (``nan`` when the scan skipped the engine solve — e.g. the point
        failed under the failure policy, or no constraint needed currents).
    """

    device: Union[SETTransistor, DeviceTable]
    temperature: Any
    drain_voltage: Any
    on_current: Any = math.nan
    off_current: Any = math.nan


@dataclass(frozen=True)
class ConstraintVerdict:
    """Outcome of one constraint at one design point.

    Parameters
    ----------
    name:
        Constraint type name (registry key, e.g. ``"gain"``).
    kind:
        ``"hard"`` or ``"diagnostic"``.
    value:
        The measured quantity (``nan`` when unknown).
    threshold:
        The threshold it was compared against.
    satisfied:
        Whether the constraint holds (always ``False`` when unknown).
    margin:
        Signed dimensionless margin; positive iff satisfied, ``nan`` when
        unknown.  Ratio-like constraints use decades
        (``log10(value / threshold)``), linear ones a threshold-relative
        difference.
    """

    name: str
    kind: str
    value: float
    threshold: float
    satisfied: bool
    margin: float

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "kind": self.kind, "value": self.value,
                "threshold": self.threshold, "satisfied": self.satisfied,
                "margin": self.margin}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ConstraintVerdict":
        """Rebuild a verdict from its plain-dict form."""
        return cls(name=str(payload["name"]), kind=str(payload["kind"]),
                   value=float(payload["value"]),
                   threshold=float(payload["threshold"]),
                   satisfied=bool(payload["satisfied"]),
                   margin=float(payload["margin"]))

    @classmethod
    def unknown(cls, name: str, kind: str,
                threshold: float) -> "ConstraintVerdict":
        """The NaN verdict recorded for failed/skipped grid points."""
        return cls(name=name, kind=kind, value=math.nan,
                   threshold=threshold, satisfied=False, margin=math.nan)


class Constraint:
    """Base class of all design constraints.

    Subclasses set the class attributes ``type_name`` (registry key),
    ``default_kind``, and ``requires_currents`` (whether evaluation needs
    the engine-computed on/off currents), and implement :meth:`measure`
    with array operations, so one implementation serves a single point and
    a batch alike.
    """

    type_name = ""
    default_kind = "hard"
    #: Whether :meth:`measure` reads ``on_current`` / ``off_current`` —
    #: scans skip the engine solves entirely when no constraint does.
    requires_currents = False

    def __init__(self, threshold: float, kind: Optional[str] = None) -> None:
        """Store the threshold and the (possibly overridden) kind."""
        self.threshold = float(threshold)
        self.kind = self.default_kind if kind is None else str(kind)
        if self.kind not in KINDS:
            raise ValidationError(
                f"constraint kind must be one of {KINDS}, got {self.kind!r}")

    # ------------------------------------------------------------- protocol

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(value, margin)`` arrays for a point or a batch.

        Undefined margins (a non-positive ratio, a dead device) are NaN.
        """
        raise NotImplementedError

    def assess(self, point: DesignPoint
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classify a point or a batch of points in one pass.

        Parameters
        ----------
        point:
            The grid point(s) under evaluation (scalar or array fields).

        Returns
        -------
        (numpy.ndarray, numpy.ndarray, numpy.ndarray)
            ``(value, margin, satisfied)``: value and margin are NaN where
            either is not finite (an unknown verdict); ``satisfied`` is
            ``margin >= 0`` where known and ``False`` elsewhere.
        """
        with np.errstate(all="ignore"):
            value, margin = self.measure(point)
        known = np.isfinite(value) & np.isfinite(margin)
        value = np.where(known, value, math.nan)
        margin = np.where(known, margin, math.nan)
        return value, margin, known & (margin >= 0.0)

    def evaluate(self, point: DesignPoint) -> ConstraintVerdict:
        """Classify one design point.

        Parameters
        ----------
        point:
            The grid point under evaluation.

        Returns
        -------
        ConstraintVerdict
            Unknown (NaN value/margin, unsatisfied) when the measured value
            is not finite; otherwise satisfied iff ``margin >= 0``.
        """
        value, margin, satisfied = self.assess(point)
        return ConstraintVerdict(name=self.type_name, kind=self.kind,
                                 value=float(value),
                                 threshold=self.threshold,
                                 satisfied=bool(satisfied),
                                 margin=float(margin))

    def to_dict(self) -> Dict[str, Any]:
        """Canonical declaration dict (what :class:`DesignSpec` stores)."""
        return {"type": self.type_name, "kind": self.kind,
                "threshold": self.threshold}


class GainConstraint(Constraint):
    """Hard constraint: intrinsic voltage gain ``C_g / C_j >= threshold``.

    The paper's logic-family argument needs gain above one for signal
    restoration; the margin is the threshold-relative excess
    ``(gain - threshold) / threshold``.
    """

    type_name = "gain"

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """Gain and its threshold-relative margin (closed form, no engine)."""
        value = np.asarray(point.device.voltage_gain, dtype=float)
        scale = max(abs(self.threshold), 1e-12)
        return value, (value - self.threshold) / scale


class OnOffRatioConstraint(Constraint):
    """Hard constraint: on/off drain-current ratio ``>= threshold``.

    The margin is measured in decades, ``log10(ratio / threshold)``, so a
    margin of 1.0 means one order of magnitude of slack.
    """

    type_name = "on_off_ratio"
    requires_currents = True

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """On/off ratio and its margin in decades."""
        on = np.abs(np.asarray(point.on_current, dtype=float))
        off = np.maximum(np.abs(np.asarray(point.off_current, dtype=float)),
                         _CURRENT_FLOOR)
        ratio = on / off
        defined = (ratio > 0.0) & (self.threshold > 0.0)
        return ratio, _decades(ratio / self.threshold, defined)


class MaxTemperatureConstraint(Constraint):
    """Hard constraint: the blockade survives at the operating temperature.

    The measured value is the device's maximum operating temperature
    ``e^2 / (2 C_sigma k_B margin)``; it must exceed the *operating*
    temperature times ``threshold`` (a safety factor, default 1.0).  The
    margin is in decades of temperature headroom.
    """

    type_name = "max_temperature"

    def __init__(self, threshold: float = 1.0, kind: Optional[str] = None,
                 kt_margin: float = 40.0) -> None:
        """Store the safety factor and the ``E_C / kT`` design margin."""
        super().__init__(threshold, kind)
        self.kt_margin = float(kt_margin)
        if self.kt_margin <= 0.0:
            raise ValidationError("max_temperature kt_margin must be > 0")

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """Maximum operating temperature and its headroom in decades."""
        value = np.asarray(
            point.device.max_operating_temperature(margin=self.kt_margin),
            dtype=float)
        required = self.threshold * np.asarray(point.temperature, dtype=float)
        defined = (value > 0.0) & (required > 0.0)
        return value, _decades(value / required, defined)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical declaration dict including the ``kt_margin`` knob."""
        payload = super().to_dict()
        payload["kt_margin"] = self.kt_margin
        return payload


class OnCurrentConstraint(Constraint):
    """Hard constraint: on-state drain current ``|I_on| >= threshold``.

    Guards against designs whose tunnel resistances are so large the device
    is technically "on" but drives no measurable current; margin in decades.
    """

    type_name = "on_current"
    requires_currents = True

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """On-current magnitude and its margin in decades."""
        value = np.abs(np.asarray(point.on_current, dtype=float))
        defined = (value > 0.0) & (self.threshold > 0.0)
        return value, _decades(value / self.threshold, defined)


class ModulationDepthConstraint(Constraint):
    """Diagnostic constraint: Coulomb-oscillation modulation depth.

    ``(|I_on| - |I_off|) / (|I_on| + |I_off|)`` in ``[-1, 1]``; the linear
    margin is ``value - threshold``.  Diagnostic by default — it grades
    how sharply the device modulates without vetoing feasibility.
    """

    type_name = "modulation_depth"
    default_kind = "diagnostic"
    requires_currents = True

    def measure(self, point: DesignPoint) -> Tuple[np.ndarray, np.ndarray]:
        """Modulation depth and its linear margin."""
        on = np.abs(np.asarray(point.on_current, dtype=float))
        off = np.abs(np.asarray(point.off_current, dtype=float))
        total = on + off
        value = np.where(total > 0.0, (on - off) / total, math.nan)
        return value, value - self.threshold


#: Registry of constraint types by declaration ``type`` name.
CONSTRAINT_TYPES: Dict[str, type] = {
    cls.type_name: cls
    for cls in (GainConstraint, OnOffRatioConstraint,
                MaxTemperatureConstraint, OnCurrentConstraint,
                ModulationDepthConstraint)
}


def build_constraint(payload: Mapping) -> Constraint:
    """Instantiate one constraint from its declaration dict.

    Parameters
    ----------
    payload:
        A declaration such as ``{"type": "gain", "threshold": 2.0}``;
        optional keys: ``kind`` (override hard/diagnostic) and any
        type-specific knobs (``kt_margin`` for ``max_temperature``).

    Returns
    -------
    Constraint
        The constraint instance.
    """
    if "type" not in payload:
        raise ValidationError(
            f"constraint declaration needs a 'type' key: {dict(payload)!r}")
    type_name = str(payload["type"])
    if type_name not in CONSTRAINT_TYPES:
        raise ValidationError(
            f"unknown constraint type {type_name!r}; choose from "
            f"{sorted(CONSTRAINT_TYPES)}")
    cls = CONSTRAINT_TYPES[type_name]
    kwargs = {str(key): value for key, value in payload.items()
              if key != "type"}
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ValidationError(
            f"invalid {type_name!r} constraint declaration: {error}") \
            from None


def build_constraints(payloads: Sequence[Mapping]) -> Tuple[Constraint, ...]:
    """Instantiate an ordered constraint set from declaration dicts."""
    constraints = tuple(build_constraint(payload) for payload in payloads)
    names = [c.type_name for c in constraints]
    if len(set(names)) != len(names):
        raise ValidationError(
            f"duplicate constraint types in design spec: {sorted(names)}")
    return constraints


__all__ = [
    "CONSTRAINT_TYPES",
    "Constraint",
    "ConstraintVerdict",
    "DesignPoint",
    "GainConstraint",
    "KINDS",
    "MaxTemperatureConstraint",
    "ModulationDepthConstraint",
    "OnCurrentConstraint",
    "OnOffRatioConstraint",
    "build_constraint",
    "build_constraints",
]
