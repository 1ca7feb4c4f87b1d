"""The AM-FM SET: a single-electron transistor with a modulatable gate capacitance.

The paper's proposal for background-charge-immune logic hinges on one device:
"an AM-FM SET (a SET where gate capacitance can be modulated)".  Physically
this could be a pn-junction (varactor) gate capacitance modulated by its bias,
or a suspended gate whose distance — hence capacitance — is modulated.

:class:`AMFMSET` models exactly that knob: a control input selects the gate
capacitance, which in turn sets the *period* (``e / C_g``) and, through the
changed capacitance division, the *amplitude* of the periodic Id-Vg
characteristic.  Both quantities are immune to the random background charge
(which only shifts the phase), so the logic layer
(:mod:`repro.logic.amfm`) can decode bits from them reliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..errors import CircuitError
from .set_transistor import SETTransistor


def depletion_capacitance(bias_voltage: float, zero_bias_capacitance: float,
                          built_in_potential: float = 0.7) -> float:
    """Reverse-biased pn-junction (varactor) capacitance in farad.

    ``C(V) = C0 / sqrt(1 + V / V_bi)`` for a reverse bias ``V >= 0`` — the
    textbook abrupt-junction depletion capacitance the paper suggests as one
    way to modulate the SET gate capacitance.
    """
    if zero_bias_capacitance <= 0.0:
        raise CircuitError("zero-bias capacitance must be positive")
    if built_in_potential <= 0.0:
        raise CircuitError("built-in potential must be positive")
    if bias_voltage < 0.0:
        raise CircuitError("varactor model expects a reverse bias (>= 0)")
    return zero_bias_capacitance / float(np.sqrt(1.0 + bias_voltage / built_in_potential))


@dataclass(frozen=True)
class AMFMSET:
    """A SET whose gate capacitance is switched between two values.

    Parameters
    ----------
    junction_capacitance, junction_resistance:
        Parameters of the two tunnel junctions (symmetric device).
    gate_capacitance_low:
        Gate capacitance selected by a logic-0 control input, in farad.
    gate_capacitance_high:
        Gate capacitance selected by a logic-1 control input, in farad.
        Must differ from the low value — the ratio sets the FM modulation
        depth.
    """

    junction_capacitance: float = 1e-18
    junction_resistance: float = 1e6
    gate_capacitance_low: float = 1.5e-18
    gate_capacitance_high: float = 3e-18

    def __post_init__(self) -> None:
        if self.gate_capacitance_low <= 0.0 or self.gate_capacitance_high <= 0.0:
            raise CircuitError("gate capacitances must be positive")
        if np.isclose(self.gate_capacitance_low, self.gate_capacitance_high,
                      rtol=1e-6, atol=0.0):
            raise CircuitError(
                "the two gate capacitances must differ; otherwise no information can "
                "be coded into period or amplitude"
            )
        if self.junction_capacitance <= 0.0 or self.junction_resistance <= 0.0:
            raise CircuitError("junction parameters must be positive")

    @classmethod
    def from_varactor(cls, junction_capacitance: float, junction_resistance: float,
                      zero_bias_capacitance: float, low_bias: float, high_bias: float,
                      built_in_potential: float = 0.7) -> "AMFMSET":
        """Build an AM-FM SET whose gate capacitance comes from a varactor.

        ``low_bias`` and ``high_bias`` are the two reverse-bias voltages the
        control logic applies to the varactor for logic 0 and logic 1.
        """
        return cls(
            junction_capacitance=junction_capacitance,
            junction_resistance=junction_resistance,
            gate_capacitance_low=depletion_capacitance(low_bias,
                                                       zero_bias_capacitance,
                                                       built_in_potential),
            gate_capacitance_high=depletion_capacitance(high_bias,
                                                        zero_bias_capacitance,
                                                        built_in_potential),
        )

    # -------------------------------------------------------------- selection

    def gate_capacitance_for(self, bit: int) -> float:
        """Gate capacitance (farad) selected by a control bit (0 or 1)."""
        if bit not in (0, 1):
            raise CircuitError(f"control bit must be 0 or 1, got {bit!r}")
        return self.gate_capacitance_high if bit else self.gate_capacitance_low

    def transistor_for(self, bit: int,
                       background_charge: float = 0.0) -> SETTransistor:
        """The plain SET corresponding to a control bit and background charge."""
        return SETTransistor(
            junction_capacitance=self.junction_capacitance,
            gate_capacitance=self.gate_capacitance_for(bit),
            junction_resistance=self.junction_resistance,
            background_charge=background_charge,
        )

    # ----------------------------------------------------------------- theory

    def period_for(self, bit: int) -> float:
        """Coulomb-oscillation period ``e / C_g(bit)`` in volt."""
        return E_CHARGE / self.gate_capacitance_for(bit)

    def period_ratio(self) -> float:
        """Ratio of the two periods (> 1 by construction ordering of bits)."""
        return self.period_for(0) / self.period_for(1) \
            if self.period_for(0) > self.period_for(1) \
            else self.period_for(1) / self.period_for(0)

    def decision_period(self) -> float:
        """Geometric-mean period used as the FM decision threshold, in volt."""
        return float(np.sqrt(self.period_for(0) * self.period_for(1)))

    # ------------------------------------------------------------- simulation

    def id_vg(self, bit: int, gate_voltages: Sequence[float], drain_voltage: float,
              temperature: float, background_charge: float = 0.0
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Simulated Id-Vg characteristic for a given control bit.

        The background charge shifts the phase of the returned characteristic
        but not its period or amplitude — which is the entire point.
        """
        transistor = self.transistor_for(bit, background_charge=background_charge)
        return transistor.id_vg(gate_voltages, drain_voltage, temperature)


__all__ = ["AMFMSET", "depletion_capacitance"]
