"""Component-tolerance model: per-element deviations, corners, seed streams.

Fabricated single-electron devices never hit their nominal capacitances and
resistances; a design point is only *usable* if it stays feasible under the
spread of its components.  This module models that spread the way SPICE
worst-case/Monte-Carlo harnesses do:

* a :class:`ComponentDeviation` per device parameter — a relative tolerance
  (``±10 %``), absolute min/max bounds, or no deviation — with a uniform or
  clipped-normal sampling distribution;
* **worst-case corners**: the Cartesian product of every element's extreme
  values (the classic corner analysis);
* **seeded sampling**: Monte-Carlo samples where each element draws from its
  *own* SHA-256-derived seed stream (:func:`derive_element_seed`, the same
  discipline as the checkpoint layer's per-chunk seeds).  Sample ``i`` of
  element ``e`` is a pure function of ``(root seed, e, i)`` — never of axis
  iteration order, worker count, or how many other elements are toleranced —
  so tolerance-MC yield is bit-reproducible across any execution schedule.

Scans draw every sample of every point at once: :meth:`ToleranceModel.draws`
takes each element's standard uniform or normal variate per sample from its
seed stream once, and :meth:`ComponentDeviation.deviate` maps those variates
onto whole arrays of nominal values with the same arithmetic
``Generator.uniform``/``Generator.normal`` perform, so the batch equals
:meth:`ToleranceModel.sample_device` value for value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..errors import ValidationError

#: Deviation kinds (mirrors the spicelib ``DeviationType`` vocabulary).
DEVIATION_KINDS = ("tolerance", "minmax", "none")

#: Sampling distributions.
DISTRIBUTIONS = ("uniform", "normal")

#: Refuse corner enumerations larger than this (2**10 elements).
_MAX_CORNERS = 1024


def derive_element_seed(root_seed: int, element: str,
                        sample_index: int) -> int:
    """Deterministic per-element, per-sample seed.

    Parameters
    ----------
    root_seed:
        The design spec's root seed.
    element:
        Device parameter name (e.g. ``"junction_capacitance"``).
    sample_index:
        Monte-Carlo sample ordinal (0-based).

    Returns
    -------
    int
        A 32-bit seed: SHA-256 of ``"{root_seed}:{element}:{sample_index}"``,
        stable across processes, platforms, and Python versions.  Because
        the stream is keyed on the element *name* and sample *index* — not
        on draw order — tolerance draws are independent of axis iteration
        order and worker count.
    """
    token = f"{root_seed}:{element}:{sample_index}"
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class ComponentDeviation:
    """Deviation model of one device parameter.

    Parameters
    ----------
    kind:
        ``"tolerance"`` (relative, symmetric around nominal), ``"minmax"``
        (absolute bounds), or ``"none"`` (no deviation).
    tolerance:
        Relative half-width for ``kind="tolerance"`` (``0.1`` = ±10 %).
    minimum, maximum:
        Absolute bounds for ``kind="minmax"``.
    distribution:
        ``"uniform"`` over the bounds, or ``"normal"`` (mean at the centre,
        3-sigma at the bounds, clipped).
    """

    kind: str = "none"
    tolerance: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    distribution: str = "uniform"

    def __post_init__(self) -> None:
        """Validate the kind/distribution vocabulary and the bounds."""
        if self.kind not in DEVIATION_KINDS:
            raise ValidationError(
                f"deviation kind must be one of {DEVIATION_KINDS}, got "
                f"{self.kind!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValidationError(
                f"deviation distribution must be one of {DISTRIBUTIONS}, "
                f"got {self.distribution!r}")
        if self.kind == "tolerance" and not 0.0 < self.tolerance < 1.0:
            raise ValidationError(
                f"relative tolerance must be in (0, 1), got "
                f"{self.tolerance!r}")
        if self.kind == "minmax" and not self.maximum > self.minimum:
            raise ValidationError(
                f"minmax deviation needs maximum > minimum, got "
                f"[{self.minimum!r}, {self.maximum!r}]")

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_tolerance(cls, tolerance: float,
                       distribution: str = "uniform") -> "ComponentDeviation":
        """A relative tolerance deviation (``0.1`` = ±10 % around nominal)."""
        return cls(kind="tolerance", tolerance=float(tolerance),
                   distribution=distribution)

    @classmethod
    def from_min_max(cls, minimum: float, maximum: float,
                     distribution: str = "uniform") -> "ComponentDeviation":
        """An absolute min/max deviation."""
        return cls(kind="minmax", minimum=float(minimum),
                   maximum=float(maximum), distribution=distribution)

    @classmethod
    def none(cls) -> "ComponentDeviation":
        """The no-deviation placeholder."""
        return cls(kind="none")

    # -------------------------------------------------------------- sampling

    def bounds(self, nominal: float) -> Tuple[float, float]:
        """The ``(low, high)`` deviation bounds around a nominal value."""
        if self.kind == "tolerance":
            low = nominal * (1.0 - self.tolerance)
            high = nominal * (1.0 + self.tolerance)
            return (min(low, high), max(low, high))
        if self.kind == "minmax":
            return (self.minimum, self.maximum)
        return (nominal, nominal)

    def corners(self, nominal: float) -> Tuple[float, ...]:
        """The worst-case corner values (empty for ``kind="none"``)."""
        if self.kind == "none":
            return ()
        return self.bounds(nominal)

    def sample(self, nominal: float, rng: np.random.Generator) -> float:
        """Draw one deviated value around a nominal.

        Parameters
        ----------
        nominal:
            The nominal parameter value.
        rng:
            The element's seeded generator (one per element per sample).

        Returns
        -------
        float
            The deviated value; always inside :meth:`bounds`.
        """
        if self.kind == "none":
            return float(nominal)
        low, high = self.bounds(nominal)
        if high <= low:
            return float(low)
        if self.distribution == "normal":
            centre = 0.5 * (low + high)
            sigma = (high - low) / 6.0
            return float(np.clip(rng.normal(centre, sigma), low, high))
        return float(rng.uniform(low, high))

    def standard_draw(self, rng: np.random.Generator) -> float:
        """The standard variate :meth:`sample` consumes from ``rng``.

        ``rng.uniform(low, high)`` is ``low + (high - low) * rng.random()``
        and ``rng.normal(centre, sigma)`` is
        ``centre + sigma * rng.standard_normal()``, so drawing the standard
        variate once lets :meth:`deviate` rebuild :meth:`sample` for any
        nominal value.
        """
        if self.distribution == "normal":
            return float(rng.standard_normal())
        return float(rng.random())

    def deviate(self, nominal: np.ndarray,
                standard: np.ndarray) -> np.ndarray:
        """Array-valued :meth:`sample` from precomputed standard variates.

        Parameters
        ----------
        nominal:
            Nominal values (any shape).
        standard:
            Standard variates from :meth:`standard_draw`, broadcastable
            against ``nominal``.

        Returns
        -------
        numpy.ndarray
            The deviated values, bit-identical to :meth:`sample` on the
            generator the variates came from.
        """
        nominal = np.asarray(nominal, dtype=float)
        standard = np.asarray(standard, dtype=float)
        if self.kind == "none":
            return np.broadcast_to(nominal, np.broadcast_shapes(
                nominal.shape, standard.shape)).copy()
        if self.kind == "tolerance":
            low = nominal * (1.0 - self.tolerance)
            high = nominal * (1.0 + self.tolerance)
            low, high = np.minimum(low, high), np.maximum(low, high)
        else:
            low = np.full(nominal.shape, self.minimum)
            high = np.full(nominal.shape, self.maximum)
        if self.distribution == "normal":
            centre = 0.5 * (low + high)
            sigma = (high - low) / 6.0
            value = np.clip(centre + sigma * standard, low, high)
        else:
            value = low + (high - low) * standard
        return np.where(high <= low, low, value)

    # ------------------------------------------------------------- documents

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "tolerance":
            payload["tolerance"] = self.tolerance
            payload["distribution"] = self.distribution
        elif self.kind == "minmax":
            payload["min"] = self.minimum
            payload["max"] = self.maximum
            payload["distribution"] = self.distribution
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ComponentDeviation":
        """Build a deviation from its plain-dict declaration."""
        known = ("kind", "tolerance", "min", "max", "distribution")
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValidationError(
                f"unknown deviation key(s) {unknown}; known keys: "
                f"{sorted(known)}")
        try:
            return cls(kind=str(payload.get("kind", "none")),
                       tolerance=float(payload.get("tolerance", 0.0)),
                       minimum=float(payload.get("min", 0.0)),
                       maximum=float(payload.get("max", 0.0)),
                       distribution=str(payload.get("distribution",
                                                    "uniform")))
        except (TypeError, ValueError) as error:
            if isinstance(error, ValidationError):
                raise
            raise ValidationError(
                f"invalid deviation declaration: {error}") from None


class ToleranceModel:
    """Per-element deviation model of a whole device.

    Parameters
    ----------
    deviations:
        Mapping device parameter name -> :class:`ComponentDeviation`;
        parameters not present keep their nominal value.
    """

    def __init__(self,
                 deviations: Mapping[str, ComponentDeviation]) -> None:
        """Store the (name-sorted) deviation mapping."""
        self.deviations: Dict[str, ComponentDeviation] = {
            name: deviations[name] for name in sorted(deviations)}
        for name, deviation in self.deviations.items():
            if not isinstance(deviation, ComponentDeviation):
                raise ValidationError(
                    f"deviation for {name!r} must be a ComponentDeviation, "
                    f"got {type(deviation).__name__}")

    def __bool__(self) -> bool:
        """Whether any element actually deviates."""
        return any(d.kind != "none" for d in self.deviations.values())

    # ------------------------------------------------------------- documents

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {name: deviation.to_dict()
                for name, deviation in self.deviations.items()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ToleranceModel":
        """Build a model from ``{element: deviation-dict}``."""
        return cls({str(name): ComponentDeviation.from_dict(entry)
                    for name, entry in dict(payload).items()})

    # --------------------------------------------------------------- devices

    def _nominal(self, device: SETTransistor, element: str) -> float:
        """The nominal value of one element, rejecting unset optionals."""
        value = getattr(device, element)
        if value is None:
            raise ValidationError(
                f"cannot apply a deviation to {element!r}: the base device "
                "leaves it unset (None)")
        return float(value)

    def sample_device(self, device: SETTransistor, root_seed: int,
                      sample_index: int) -> SETTransistor:
        """One Monte-Carlo deviated device.

        Parameters
        ----------
        device:
            The nominal device.
        root_seed:
            The design spec's root seed.
        sample_index:
            Sample ordinal; sample ``i`` is a pure function of
            ``(root_seed, i)`` regardless of execution schedule.

        Returns
        -------
        SETTransistor
            The deviated device (each toleranced element drawn from its own
            :func:`derive_element_seed` stream).
        """
        overrides: Dict[str, float] = {}
        for element, deviation in self.deviations.items():
            if deviation.kind == "none":
                continue
            rng = np.random.default_rng(
                derive_element_seed(root_seed, element, sample_index))
            overrides[element] = deviation.sample(
                self._nominal(device, element), rng)
        if not overrides:
            return device
        return dataclasses.replace(device, **overrides)

    def draws(self, root_seed: int, samples: int) -> Dict[str, np.ndarray]:
        """Every deviating element's standard variates, one per sample.

        Parameters
        ----------
        root_seed:
            The design spec's root seed.
        samples:
            Number of Monte-Carlo samples.

        Returns
        -------
        dict
            Element name -> array of ``samples`` standard variates, drawn
            from the same :func:`derive_element_seed` streams
            :meth:`sample_device` uses.
        """
        return {
            element: np.array([
                deviation.standard_draw(np.random.default_rng(
                    derive_element_seed(root_seed, element, sample)))
                for sample in range(samples)])
            for element, deviation in self.deviations.items()
            if deviation.kind != "none"}

    def corner_devices(
            self, device: SETTransistor
    ) -> List[Tuple[Dict[str, float], SETTransistor]]:
        """Every worst-case corner device.

        Parameters
        ----------
        device:
            The nominal device.

        Returns
        -------
        list of (dict, SETTransistor)
            One entry per corner: the element -> value assignment and the
            corresponding device.  Empty when nothing deviates.
        """
        active = [(element, deviation.corners(self._nominal(device, element)))
                  for element, deviation in self.deviations.items()
                  if deviation.kind != "none"]
        if not active:
            return []
        total = 1
        for _, corner_values in active:
            total *= len(corner_values)
        if total > _MAX_CORNERS:
            raise ValidationError(
                f"corner analysis would enumerate {total} corners "
                f"(limit {_MAX_CORNERS}); reduce the number of toleranced "
                "elements")
        corners: List[Tuple[Dict[str, float], SETTransistor]] = []
        names = [element for element, _ in active]
        for combination in itertools.product(
                *(corner_values for _, corner_values in active)):
            assignment = dict(zip(names, combination))
            corners.append((assignment,
                            dataclasses.replace(device, **assignment)))
        return corners


__all__ = [
    "ComponentDeviation",
    "DEVIATION_KINDS",
    "DISTRIBUTIONS",
    "ToleranceModel",
    "derive_element_seed",
]
