"""Temperature scaling of single-electron devices.

"Achieving room temperature operation requires structures in the few
nanometre regime."  (paper, §2)

The chain of reasoning is purely electrostatic: a conducting island of
diameter ``d`` has a self-capacitance of order ``2 pi epsilon d`` (sphere:
``C = 2 pi epsilon_0 epsilon_r d``); the charging energy ``e^2 / (2 C)`` must
beat thermal fluctuations by a comfortable margin (conventionally a factor of
40) for the Coulomb blockade to be usable.  These helpers walk that chain in
both directions and quantify the thermal washing-out of Coulomb oscillations,
providing everything experiments E3 and E4 need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..constants import (
    BOLTZMANN,
    E_CHARGE,
    OPERATING_MARGIN,
    VACUUM_PERMITTIVITY,
    charging_energy,
)
from ..errors import AnalysisError, ValidationError


def island_self_capacitance(diameter: float, relative_permittivity: float = 3.9) -> float:
    """Self-capacitance (farad) of a spherical island of a given diameter (m).

    ``C = 2 pi epsilon_0 epsilon_r d`` — the sphere formula ``4 pi eps r``
    rewritten with the diameter.  The default permittivity is that of SiO2,
    the typical embedding dielectric.
    """
    if diameter <= 0.0:
        raise AnalysisError("diameter must be positive")
    if relative_permittivity <= 0.0:
        raise AnalysisError("relative permittivity must be positive")
    return 2.0 * math.pi * VACUUM_PERMITTIVITY * relative_permittivity * diameter


def diameter_for_capacitance(capacitance: float,
                             relative_permittivity: float = 3.9) -> float:
    """Island diameter (m) with a given self-capacitance (farad)."""
    if capacitance <= 0.0:
        raise AnalysisError("capacitance must be positive")
    return capacitance / (2.0 * math.pi * VACUUM_PERMITTIVITY * relative_permittivity)


def max_operating_temperature_for_diameter(diameter: float,
                                           relative_permittivity: float = 3.9,
                                           margin: float = OPERATING_MARGIN,
                                           junction_capacitance: float = 0.0) -> float:
    """Maximum operating temperature (K) of an island of a given diameter.

    ``junction_capacitance`` adds the capacitance of the attached tunnel
    junctions and gates, which in practice dominates for larger islands.
    """
    total = island_self_capacitance(diameter, relative_permittivity) \
        + max(junction_capacitance, 0.0)
    return charging_energy(total) / (margin * BOLTZMANN)


def diameter_for_temperature(temperature: float,
                             relative_permittivity: float = 3.9,
                             margin: float = OPERATING_MARGIN,
                             junction_capacitance: float = 0.0) -> float:
    """Largest island diameter (m) usable at a given temperature (K).

    Inverts :func:`max_operating_temperature_for_diameter`; raises
    :class:`~repro.errors.AnalysisError` when the fixed junction capacitance
    alone already exceeds the capacitance budget.
    """
    if temperature <= 0.0:
        raise AnalysisError("temperature must be positive")
    budget = E_CHARGE**2 / (2.0 * margin * BOLTZMANN * temperature)
    remaining = budget - max(junction_capacitance, 0.0)
    if remaining <= 0.0:
        raise AnalysisError(
            "the junction capacitance alone exceeds the capacitance budget at this "
            "temperature; no island is small enough"
        )
    return diameter_for_capacitance(remaining, relative_permittivity)


def oscillation_visibility(total_capacitance: float, temperature: float) -> float:
    """Approximate visibility of Coulomb oscillations at a finite temperature.

    Defined as ``(I_max - I_min) / (I_max + I_min)`` of the Id-Vg
    characteristic; thermal smearing suppresses it roughly as
    ``tanh(E_C / (2.5 k_B T))`` (empirical fit to the orthodox model across
    the useful range, exact limits 1 at T -> 0 and 0 at T -> infinity).
    """
    if temperature < 0.0:
        raise AnalysisError("temperature must be non-negative")
    if temperature == 0.0:
        return 1.0
    energy_ratio = charging_energy(total_capacitance) / (BOLTZMANN * temperature)
    return float(np.tanh(energy_ratio / 2.5))


def simulated_oscillation_visibility(set_model, temperature: float,
                                     drain_voltage: Optional[float] = None,
                                     points: int = 41) -> float:
    """Visibility of the Id-Vg oscillations from an actual model sweep.

    ``set_model`` is any compact model with ``gate_period``,
    ``total_capacitance`` and the broadcast ``drain_current_map`` interface
    — in practice an :class:`~repro.compact.set_model.AnalyticSETModel`
    created at ``temperature``; the whole gate sweep is one
    ``drain_current_map`` call.  Scalar-only duck-typed models are
    rejected.
    """
    drain_current_map = getattr(set_model, "drain_current_map", None)
    if drain_current_map is None:
        raise ValidationError(
            f"{type(set_model).__name__} has no drain_current_map; the "
            "oscillation sweep requires the broadcast interface (all "
            "repro.compact SET models provide it)")
    period = set_model.gate_period
    if drain_voltage is None:
        drain_voltage = 0.1 * E_CHARGE / set_model.total_capacitance
    gates = np.linspace(0.0, period, points)
    currents = np.asarray(drain_current_map([float(drain_voltage)], gates),
                          dtype=float)[0]
    high, low = currents.max(), currents.min()
    if high + low <= 0.0:
        return 0.0
    return float((high - low) / (high + low))


@dataclass(frozen=True)
class TemperatureScalingRow:
    """One row of the temperature-scaling table (experiment E4)."""

    diameter: float
    total_capacitance: float
    charging_energy: float
    max_temperature: float
    room_temperature_ok: bool


def temperature_scaling_table(diameters: Sequence[float],
                              relative_permittivity: float = 3.9,
                              margin: float = OPERATING_MARGIN,
                              junction_capacitance: float = 0.0,
                              room_temperature: float = 300.0
                              ) -> Tuple[TemperatureScalingRow, ...]:
    """The island-size -> operating-temperature table of experiment E4."""
    rows = []
    for diameter in diameters:
        total = island_self_capacitance(diameter, relative_permittivity) \
            + max(junction_capacitance, 0.0)
        energy = charging_energy(total)
        max_temperature = energy / (margin * BOLTZMANN)
        rows.append(TemperatureScalingRow(
            diameter=float(diameter),
            total_capacitance=total,
            charging_energy=energy,
            max_temperature=max_temperature,
            room_temperature_ok=max_temperature >= room_temperature,
        ))
    return tuple(rows)


__all__ = [
    "TemperatureScalingRow",
    "diameter_for_capacitance",
    "diameter_for_temperature",
    "island_self_capacitance",
    "max_operating_temperature_for_diameter",
    "oscillation_visibility",
    "simulated_oscillation_visibility",
    "temperature_scaling_table",
]
