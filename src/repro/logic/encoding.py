"""Information coding schemes for single-electron logic.

The paper's argument in one paragraph: a SET's Id-Vg characteristic is
periodic; a random background charge shifts its *phase* but not its *period*
or *amplitude*; therefore logic that codes bits directly into voltage/current
levels (phase-sensitive) is unreliable, while logic that codes bits into the
period (FM) or amplitude (AM) of the characteristic is immune.

This module provides the common vocabulary (:class:`BitReading`,
:class:`LogicEncoding`) and the *vulnerable* baseline —
:class:`DirectCodedSETLogic`, which biases a plain SET at a fixed gate voltage
and reads the drain current against a threshold.  The immune AM/FM schemes
live in :mod:`repro.logic.amfm`; experiment E2 races them against each other
over random background-charge configurations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from ..devices.set_transistor import SETTransistor
from ..engines import BiasPoint, get_engine
from ..errors import EncodingError


@dataclass(frozen=True)
class BitReading:
    """Outcome of decoding one transmitted bit.

    Attributes
    ----------
    bit:
        The decoded logic value (0 or 1).
    observable:
        The analogue quantity the decision was based on (a current for direct
        coding, a period or amplitude for FM/AM coding).
    threshold:
        The decision threshold that was applied.
    margin:
        Distance of the observable from the threshold, normalised to the
        threshold (dimensionless); small margins indicate a fragile decision.
    """

    bit: int
    observable: float
    threshold: float
    margin: float


class LogicEncoding(abc.ABC):
    """A way of representing one bit in a single-electron device.

    Concrete encodings must implement :meth:`transmit_and_decode`: simulate
    the device configured to carry ``bit`` while suffering a given background
    charge, then decode the bit from the simulated observable.  The
    calibration (thresholds) must be established once, at zero background
    charge, mimicking a designer who cannot know the stray charges of an
    actual die.
    """

    #: Human-readable name of the scheme, used in result tables.
    name: str = "abstract"

    #: Number of Id-Vg periods the decoder must observe to make a decision.
    #: Direct coding decides from one sample (0 periods); AM/FM coding needs a
    #: sweep over a few periods, which is exactly why the paper concedes that
    #: "such logic has to be slower than a direct coding".
    decision_periods: float = 0.0

    @abc.abstractmethod
    def transmit_and_decode(self, bit: int, background_charge: float) -> BitReading:
        """Simulate transmitting ``bit`` through a device with ``background_charge``."""

    def is_correct(self, bit: int, background_charge: float) -> bool:
        """Whether the decoded bit equals the transmitted bit."""
        return self.transmit_and_decode(bit, background_charge).bit == bit


def _check_bit(bit: int) -> int:
    if bit not in (0, 1):
        raise EncodingError(f"bit must be 0 or 1, got {bit!r}")
    return bit


class DirectCodedSETLogic(LogicEncoding):
    """Direct (voltage-level) coding on a plain SET — the fragile baseline.

    The transmitter biases the gate at one of two calibrated voltages
    (blockade centre for 0, conductance peak for 1); the receiver compares
    the drain current to the calibrated mid-point.  A background charge of
    order ``e/4`` moves the peaks by a quarter period and scrambles the
    levels.

    Parameters
    ----------
    transistor:
        The SET used as the logic device.
    drain_voltage:
        Read-out drain bias in volt (default: 40 % of the blockade voltage).
    temperature:
        Operating temperature in kelvin.
    """

    name = "direct"
    decision_periods = 0.0

    def __init__(self, transistor: SETTransistor, drain_voltage: Optional[float] = None,
                 temperature: float = 0.5) -> None:
        self.transistor = transistor
        self.drain_voltage = drain_voltage if drain_voltage is not None \
            else 0.4 * transistor.blockade_voltage
        self.temperature = float(temperature)
        self._session = get_engine("master").bind(
            transistor, temperature=self.temperature)
        period = transistor.gate_period
        #: Gate voltages representing logic 0 (blockade) and 1 (peak), chosen
        #: assuming zero background charge.
        self.gate_voltages: Tuple[float, float] = (0.0, 0.5 * period)
        low = self._current(self.gate_voltages[0], background_charge=0.0)
        high = self._current(self.gate_voltages[1], background_charge=0.0)
        if high <= low:
            raise EncodingError(
                "calibration failed: the nominal '1' level does not carry more current "
                "than the nominal '0' level; increase the drain bias or lower the "
                "temperature"
            )
        #: Decision threshold calibrated without background charge.
        self.threshold_current = 0.5 * (low + high)

    def _current(self, gate_voltage: float, background_charge: float) -> float:
        return abs(self._session.solve(BiasPoint(
            gate_voltage, self.drain_voltage,
            offset_charge=background_charge)).current)

    def transmit_and_decode(self, bit: int, background_charge: float) -> BitReading:
        """Bias the gate for ``bit``, read the current, compare to the threshold."""
        _check_bit(bit)
        current = self._current(self.gate_voltages[bit], background_charge)
        decoded = 1 if current >= self.threshold_current else 0
        margin = (current - self.threshold_current) / self.threshold_current
        return BitReading(bit=decoded, observable=current,
                          threshold=self.threshold_current, margin=abs(margin))


__all__ = ["BitReading", "LogicEncoding", "DirectCodedSETLogic"]
