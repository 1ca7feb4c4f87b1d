"""Logic-family characterisation: gain, logic levels and noise margins.

The paper's §2 discusses the two engineering weaknesses of directly coded SET
logic: small voltage gain (``C_g/C_j``) and background-charge sensitivity.
This module turns an inverter transfer curve into the standard logic-family
metrics (``V_OH``, ``V_OL``, ``V_IL``, ``V_IH``, noise margins, peak gain) so
those weaknesses can be quantified, and provides the gain-versus-operating-
temperature trade-off table of experiment E3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..constants import BOLTZMANN, OPERATING_MARGIN, charging_energy
from ..errors import AnalysisError


@dataclass(frozen=True)
class InverterMetrics:
    """Standard static metrics of an inverter transfer curve.

    ``V_IL`` / ``V_IH`` are the input voltages where the slope magnitude
    crosses one (unity-gain points); ``V_OH`` / ``V_OL`` are the output levels
    outside those points.  ``NM_H = V_OH - V_IH`` and ``NM_L = V_IL - V_OL``
    are the noise margins.
    """

    output_high: float
    output_low: float
    input_low_limit: float
    input_high_limit: float
    peak_gain: float
    peak_gain_input: float

    @property
    def swing(self) -> float:
        """Static output swing ``V_OH - V_OL``."""
        return self.output_high - self.output_low

    @property
    def noise_margin_high(self) -> float:
        """High-level noise margin ``V_OH - V_IH``."""
        return self.output_high - self.input_high_limit

    @property
    def noise_margin_low(self) -> float:
        """Low-level noise margin ``V_IL - V_OL``."""
        return self.input_low_limit - self.output_low

    @property
    def has_gain(self) -> bool:
        """Whether the transfer curve ever exceeds unity gain."""
        return self.peak_gain > 1.0


def characterize_inverter(input_voltages: Sequence[float],
                          output_voltages: Sequence[float]) -> InverterMetrics:
    """Extract :class:`InverterMetrics` from a (monotonically falling) transfer curve.

    The curve does not need to be perfectly monotonic — SET inverters ripple —
    but it must start high and end low over the analysed input range.
    """
    vin = np.asarray(input_voltages, dtype=float)
    vout = np.asarray(output_voltages, dtype=float)
    if vin.shape != vout.shape or vin.size < 5:
        raise AnalysisError("need matching arrays with at least 5 points")
    if np.any(np.diff(vin) <= 0.0):
        raise AnalysisError("input voltages must be strictly increasing")
    if vout[0] <= vout[-1]:
        raise AnalysisError(
            "transfer curve does not fall from high to low over this input range"
        )

    slope = np.gradient(vout, vin)
    gain = np.abs(slope)
    peak_index = int(np.argmax(gain))
    peak_gain = float(gain[peak_index])
    peak_input = float(vin[peak_index])

    unity = gain >= 1.0
    if np.any(unity):
        first = int(np.argmax(unity))
        last = int(len(unity) - 1 - np.argmax(unity[::-1]))
        input_low_limit = float(vin[max(first - 1, 0)])
        input_high_limit = float(vin[min(last + 1, vin.size - 1)])
    else:
        # Gain never reaches one: the transition point doubles as both limits.
        input_low_limit = peak_input
        input_high_limit = peak_input

    output_high = float(np.max(vout[vin <= input_low_limit])) \
        if np.any(vin <= input_low_limit) else float(vout[0])
    output_low = float(np.min(vout[vin >= input_high_limit])) \
        if np.any(vin >= input_high_limit) else float(vout[-1])

    return InverterMetrics(
        output_high=output_high,
        output_low=output_low,
        input_low_limit=input_low_limit,
        input_high_limit=input_high_limit,
        peak_gain=peak_gain,
        peak_gain_input=peak_input,
    )


@dataclass(frozen=True)
class GainTemperatureRow:
    """One row of the gain-versus-temperature trade-off table (experiment E3)."""

    gain: float
    gate_capacitance: float
    total_capacitance: float
    charging_energy: float
    max_operating_temperature: float


def gain_temperature_tradeoff(junction_capacitance: float,
                              gains: Sequence[float],
                              extra_capacitance: float = 0.0,
                              margin: float = OPERATING_MARGIN
                              ) -> Tuple[GainTemperatureRow, ...]:
    """The paper's trade-off: raising the gain ``C_g/C_j`` raises ``C_sigma``.

    For each requested gain the gate capacitance is ``gain * C_j``; the island
    capacitance is ``2 C_j + C_g + extra`` and the maximum operating
    temperature follows from the usual 40 kT criterion.  "Gains of > 1 have
    been reported but are also associated with lower operating temperatures
    due to increased total node capacitance."  (paper, §2)
    """
    if junction_capacitance <= 0.0:
        raise AnalysisError("junction capacitance must be positive")
    rows: List[GainTemperatureRow] = []
    for gain in gains:
        if gain <= 0.0:
            raise AnalysisError("gains must be positive")
        gate_capacitance = gain * junction_capacitance
        total = 2.0 * junction_capacitance + gate_capacitance + extra_capacitance
        energy = charging_energy(total)
        rows.append(GainTemperatureRow(
            gain=float(gain),
            gate_capacitance=gate_capacitance,
            total_capacitance=total,
            charging_energy=energy,
            max_operating_temperature=energy / (margin * BOLTZMANN),
        ))
    return tuple(rows)


__all__ = ["InverterMetrics", "GainTemperatureRow", "characterize_inverter",
           "gain_temperature_tradeoff"]
