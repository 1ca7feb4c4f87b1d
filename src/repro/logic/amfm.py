"""Background-charge-immune AM/FM coded single-electron logic (Klunder scheme).

"In order to build a random background charge independent logic one has to
code information into the period or amplitude of this Id-Vg characteristic."
(paper, §2)

Both schemes use the :class:`~repro.devices.amfm_set.AMFMSET` — a SET whose
gate capacitance is switched between two values by the logic input:

* **FM coding** (:class:`FMCodedSETLogic`): the receiver sweeps the gate over
  a few periods, extracts the oscillation *period* with
  :func:`repro.analysis.oscillations.fundamental_component` and compares it to
  the geometric-mean threshold.  The background charge shifts the phase of the
  sweep but leaves the period untouched, so the decision is unaffected.
* **AM coding** (:class:`AMCodedSETLogic`): same sweep, but the decision is
  based on the oscillation *amplitude* (the capacitance divider changes with
  ``C_g``, so the two configurations produce different modulation depths).

Both receivers need to observe several oscillation periods, which is exactly
the speed penalty the paper acknowledges; the cost is quantified by the
``decision_periods`` attribute and examined in experiment E9.

:func:`bit_error_rate` runs the Monte-Carlo comparison of experiment E2:
random background charges are drawn, bits are pushed through a chosen
encoding, and the error rate is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..analysis.oscillations import fundamental_component
from ..core.background import BackgroundChargeDistribution
from ..devices.amfm_set import AMFMSET
from ..errors import EncodingError
from .encoding import BitReading, LogicEncoding, _check_bit


class _SweepingEncoding(LogicEncoding):
    """Common machinery of the AM and FM receivers (gate sweep + calibration)."""

    def __init__(self, device: AMFMSET, drain_voltage: float, temperature: float,
                 periods: float = 3.0, points_per_period: int = 24) -> None:
        if periods < 2.0:
            raise EncodingError(
                "the receiver must observe at least two oscillation periods to "
                "measure period or amplitude reliably"
            )
        if points_per_period < 8:
            raise EncodingError("need at least 8 samples per period")
        self.device = device
        self.drain_voltage = float(drain_voltage)
        self.temperature = float(temperature)
        self.periods = float(periods)
        self.points_per_period = int(points_per_period)
        self.decision_periods = float(periods)

    def _sweep(self, bit: int, background_charge: float
               ) -> Tuple[np.ndarray, np.ndarray]:
        longest_period = max(self.device.period_for(0), self.device.period_for(1))
        span = self.periods * longest_period
        points = int(self.periods * self.points_per_period)
        gate_voltages = np.linspace(0.0, span, points, endpoint=False)
        return self.device.id_vg(bit, gate_voltages, self.drain_voltage,
                                 self.temperature,
                                 background_charge=background_charge)


class FMCodedSETLogic(_SweepingEncoding):
    """Frequency-modulation coding: the bit lives in the oscillation period."""

    name = "fm"

    def __init__(self, device: AMFMSET, drain_voltage: float, temperature: float,
                 periods: float = 3.0, points_per_period: int = 24) -> None:
        super().__init__(device, drain_voltage, temperature, periods,
                         points_per_period)
        #: Decision threshold: the geometric mean of the two nominal periods.
        self.threshold_period = device.decision_period()
        #: Whether a long measured period means logic 1.
        self.high_bit_has_long_period = device.period_for(1) > device.period_for(0)

    def transmit_and_decode(self, bit: int, background_charge: float) -> BitReading:
        """Sweep the gate, extract the period, compare to the threshold."""
        _check_bit(bit)
        gate_voltages, currents = self._sweep(bit, background_charge)
        period, _, _ = fundamental_component(gate_voltages, currents)
        longer = period >= self.threshold_period
        decoded = int(longer == self.high_bit_has_long_period)
        margin = abs(period - self.threshold_period) / self.threshold_period
        return BitReading(bit=decoded, observable=period,
                          threshold=self.threshold_period, margin=margin)


class AMCodedSETLogic(_SweepingEncoding):
    """Amplitude-modulation coding: the bit lives in the oscillation amplitude."""

    name = "am"

    def __init__(self, device: AMFMSET, drain_voltage: float, temperature: float,
                 periods: float = 3.0, points_per_period: int = 24) -> None:
        super().__init__(device, drain_voltage, temperature, periods,
                         points_per_period)
        amplitude_low = self._calibrate_amplitude(0)
        amplitude_high = self._calibrate_amplitude(1)
        if np.isclose(amplitude_low, amplitude_high, rtol=1e-3, atol=0.0):
            raise EncodingError(
                "the two gate capacitances produce indistinguishable oscillation "
                "amplitudes; increase their ratio or change the drain bias"
            )
        #: Decision threshold: the geometric mean of the two calibrated amplitudes.
        self.threshold_amplitude = float(np.sqrt(amplitude_low * amplitude_high))
        #: Whether a large measured amplitude means logic 1.
        self.high_bit_has_large_amplitude = amplitude_high > amplitude_low

    def _calibrate_amplitude(self, bit: int) -> float:
        gate_voltages, currents = self._sweep(bit, background_charge=0.0)
        _, amplitude, _ = fundamental_component(gate_voltages, currents)
        return amplitude

    def transmit_and_decode(self, bit: int, background_charge: float) -> BitReading:
        """Sweep the gate, extract the amplitude, compare to the threshold."""
        _check_bit(bit)
        gate_voltages, currents = self._sweep(bit, background_charge)
        _, amplitude, _ = fundamental_component(gate_voltages, currents)
        larger = amplitude >= self.threshold_amplitude
        decoded = int(larger == self.high_bit_has_large_amplitude)
        margin = abs(amplitude - self.threshold_amplitude) / self.threshold_amplitude
        return BitReading(bit=decoded, observable=amplitude,
                          threshold=self.threshold_amplitude, margin=margin)


@dataclass(frozen=True)
class ErrorRateResult:
    """Bit-error-rate of one encoding under random background charges."""

    encoding: str
    trials: int
    errors: int
    decision_periods: float

    @property
    def error_rate(self) -> float:
        """Fraction of wrongly decoded bits."""
        return self.errors / self.trials if self.trials else 0.0


def bit_error_rate(encoding: LogicEncoding, trials: int = 50,
                   amplitude: float = 0.5, seed: Optional[int] = None,
                   island: str = "dot") -> ErrorRateResult:
    """Monte-Carlo bit-error-rate of an encoding under random background charges.

    Parameters
    ----------
    encoding:
        Any :class:`~repro.logic.encoding.LogicEncoding`.
    trials:
        Number of (bit, background-charge) trials.
    amplitude:
        Maximum background charge magnitude in units of ``e`` (0.5 covers the
        full physically distinct range).
    seed:
        Random seed for reproducibility.
    island:
        Name given to the perturbed island in the charge distribution (only
        cosmetic: a single value is drawn per trial).
    """
    if trials <= 0:
        raise EncodingError("trials must be positive")
    distribution = BackgroundChargeDistribution([island], amplitude=amplitude,
                                                seed=seed)
    rng = np.random.default_rng(None if seed is None else seed + 1)
    errors = 0
    for _ in range(trials):
        bit = int(rng.integers(0, 2))
        charge = distribution.sample()[island]
        if not encoding.is_correct(bit, charge):
            errors += 1
    return ErrorRateResult(encoding=encoding.name, trials=trials, errors=errors,
                           decision_periods=encoding.decision_periods)


__all__ = ["AMCodedSETLogic", "FMCodedSETLogic", "ErrorRateResult", "bit_error_rate"]
