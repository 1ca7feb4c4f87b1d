"""Voltage-controlled capacitances (varactors) for AM-FM SET circuits.

The paper suggests two physical knobs for modulating a SET's gate
capacitance: "a pn junction capacitance which can be modulated by its applied
bias or perhaps a suspended gate whose distance to the SET can be modulated".
Both are provided here as simple analytic capacitance laws; the AM-FM device
layer (:mod:`repro.devices.amfm_set`) and the logic layer consume them to turn
a control voltage into a gate capacitance.

At DC a varactor carries no current, so inside the compact solver it behaves
like :class:`~repro.compact.elements.CapacitorDC`; its value only matters to
the quasi-static drivers that rebuild the single-electron circuit per time
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..errors import CircuitError


@dataclass(frozen=True)
class JunctionVaractor:
    """Abrupt pn-junction depletion capacitance ``C(V) = C0 / sqrt(1 + V/Vbi)``.

    Parameters
    ----------
    zero_bias_capacitance:
        Capacitance at zero reverse bias, in farad.
    built_in_potential:
        Junction built-in potential in volt.
    grading_exponent:
        0.5 for an abrupt junction, ~0.33 for a linearly graded junction.
    """

    zero_bias_capacitance: float
    built_in_potential: float = 0.7
    grading_exponent: float = 0.5

    def __post_init__(self) -> None:
        if self.zero_bias_capacitance <= 0.0:
            raise CircuitError("zero-bias capacitance must be positive")
        if self.built_in_potential <= 0.0:
            raise CircuitError("built-in potential must be positive")
        if not 0.0 < self.grading_exponent < 1.0:
            raise CircuitError("grading exponent must lie in (0, 1)")

    def capacitance(self, reverse_bias: float) -> float:
        """Capacitance in farad at a reverse bias ``>= 0`` volt."""
        if reverse_bias < 0.0:
            raise CircuitError("varactor model expects a reverse bias (>= 0)")
        return self.zero_bias_capacitance / (
            (1.0 + reverse_bias / self.built_in_potential) ** self.grading_exponent)

    def bias_for_capacitance(self, target: float) -> float:
        """Reverse bias (volt) that yields ``target`` capacitance."""
        if target <= 0.0 or target > self.zero_bias_capacitance:
            raise CircuitError(
                "target capacitance must be positive and at most the zero-bias value"
            )
        ratio = self.zero_bias_capacitance / target
        return self.built_in_potential * (ratio ** (1.0 / self.grading_exponent) - 1.0)


@dataclass(frozen=True)
class SuspendedGateVaractor:
    """Parallel-plate capacitance of a movable (suspended) gate.

    ``C(x) = epsilon_0 * area / (gap - displacement(V))`` with an
    electrostatically actuated displacement proportional to the square of the
    actuation voltage (small-deflection limit).
    """

    area: float
    rest_gap: float
    pull_in_voltage: float = 1.0

    def __post_init__(self) -> None:
        if self.area <= 0.0 or self.rest_gap <= 0.0 or self.pull_in_voltage <= 0.0:
            raise CircuitError("area, rest gap and pull-in voltage must be positive")

    def capacitance(self, actuation_voltage: float) -> float:
        """Capacitance in farad for an actuation voltage below pull-in."""
        from ..constants import VACUUM_PERMITTIVITY

        displacement_fraction = (actuation_voltage / self.pull_in_voltage) ** 2 / 3.0
        displacement_fraction = min(displacement_fraction, 1.0 / 3.0)
        gap = self.rest_gap * (1.0 - displacement_fraction)
        return VACUUM_PERMITTIVITY * self.area / gap


@dataclass(frozen=True)
class Varactor:
    """A varactor wired into a compact circuit (open at DC)."""

    name: str
    node_a: str
    node_b: str
    model: JunctionVaractor

    @property
    def terminals(self) -> Tuple[str, ...]:
        """Connected nodes."""
        return (self.node_a, self.node_b)

    def terminal_currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        """No DC current."""
        return {self.node_a: 0.0, self.node_b: 0.0}

    def capacitance(self, voltages: Mapping[str, float]) -> float:
        """Instantaneous capacitance given the node voltages."""
        bias = abs(voltages[self.node_a] - voltages[self.node_b])
        return self.model.capacitance(bias)


__all__ = ["JunctionVaractor", "SuspendedGateVaractor", "Varactor"]
