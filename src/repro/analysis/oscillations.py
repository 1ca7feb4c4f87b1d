"""Extraction of period, amplitude and phase from Coulomb oscillations.

The paper's key observation is that of the three descriptors of the periodic
Id-Vg characteristic — period, amplitude, phase — only the *phase* is touched
by the random background charge.  These helpers turn a simulated (or measured)
sweep into exactly those three numbers so the claim can be tested
quantitatively (experiment E1) and so the AM/FM logic decoder
(:mod:`repro.logic.amfm`) has something to decide on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class OscillationAnalysis:
    """Descriptors of a periodic characteristic.

    Attributes
    ----------
    period:
        Dominant period in the sweep variable's unit (volt for Id-Vg).
    amplitude:
        Amplitude of the fundamental Fourier component (same unit as the
        signal, e.g. ampere).
    peak_to_peak:
        Max-min signal excursion.
    phase:
        Phase of the fundamental component in radians, in ``[-pi, pi)``.
    mean:
        Mean signal level.
    """

    period: float
    amplitude: float
    peak_to_peak: float
    phase: float
    mean: float

    def phase_in_periods(self) -> float:
        """Phase expressed as a fraction of a period, in ``[0, 1)``."""
        fraction = self.phase / (2.0 * np.pi)
        return float(fraction % 1.0)


def _check_uniform_grid(x: np.ndarray) -> float:
    steps = np.diff(x)
    if x.size < 8:
        raise AnalysisError("need at least 8 samples to analyse oscillations")
    if np.any(steps <= 0.0):
        raise AnalysisError("sweep values must be strictly increasing")
    spread = steps.max() - steps.min()
    if spread > 1e-6 * abs(steps.mean()):
        raise AnalysisError("oscillation analysis requires a uniform sweep grid")
    return float(steps.mean())


def fundamental_component(x: Sequence[float], y: Sequence[float]
                          ) -> Tuple[float, float, float]:
    """Dominant non-DC Fourier component of a uniformly sampled signal.

    Returns ``(period, amplitude, phase)``; raises
    :class:`~repro.errors.AnalysisError` when the record is too short or not
    uniformly sampled.
    """
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.shape != y_array.shape:
        raise AnalysisError("x and y must have the same shape")
    step = _check_uniform_grid(x_array)

    detrended = y_array - y_array.mean()
    spectrum = np.fft.rfft(detrended)
    frequencies = np.fft.rfftfreq(y_array.size, d=step)
    if spectrum.size < 2:
        raise AnalysisError("record too short for spectral analysis")
    magnitudes = np.abs(spectrum)
    magnitudes[0] = 0.0
    peak = int(np.argmax(magnitudes))
    if magnitudes[peak] == 0.0:
        raise AnalysisError("signal has no oscillating component")
    frequency = frequencies[peak]
    if frequency <= 0.0:
        raise AnalysisError("could not identify a positive oscillation frequency")
    period = 1.0 / frequency
    amplitude = 2.0 * magnitudes[peak] / y_array.size
    # numpy's rfft uses exp(-i 2 pi f x); the signal component is
    # A cos(2 pi f (x - x0) + phase).
    phase = float(np.angle(spectrum[peak]) + 2.0 * np.pi * frequency * x_array[0])
    phase = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
    return float(period), float(amplitude), phase


def refine_period_by_peaks(x: Sequence[float], y: Sequence[float],
                           minimum_prominence: float = 0.25) -> float:
    """Period estimate from the median spacing of local maxima.

    More robust than the FFT estimate when fewer than ~3 periods are covered,
    at the cost of needing clearly separated peaks.  ``minimum_prominence`` is
    a fraction of the peak-to-peak signal excursion.
    """
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.size < 5:
        raise AnalysisError("need at least 5 samples for peak-based analysis")
    span = y_array.max() - y_array.min()
    if span <= 0.0:
        raise AnalysisError("signal is constant; no peaks to find")
    threshold = y_array.min() + minimum_prominence * span
    peaks = []
    for index in range(1, y_array.size - 1):
        if (y_array[index] >= y_array[index - 1]
                and y_array[index] > y_array[index + 1]
                and y_array[index] >= threshold):
            peaks.append(x_array[index])
    if len(peaks) < 2:
        raise AnalysisError("fewer than two peaks found; cannot estimate a period")
    spacings = np.diff(peaks)
    return float(np.median(spacings))


def analyze_oscillations(x: Sequence[float], y: Sequence[float]) -> OscillationAnalysis:
    """Full oscillation analysis: period, amplitude, peak-to-peak, phase, mean."""
    y_array = np.asarray(y, dtype=float)
    period, amplitude, phase = fundamental_component(x, y)
    return OscillationAnalysis(
        period=period,
        amplitude=amplitude,
        peak_to_peak=float(y_array.max() - y_array.min()),
        phase=phase,
        mean=float(y_array.mean()),
    )


def phase_shift_between(x: Sequence[float], reference: Sequence[float],
                        shifted: Sequence[float]) -> float:
    """Phase shift (radians) of ``shifted`` relative to ``reference``.

    Both signals must share the sweep grid ``x`` and the same period; the
    returned value lies in ``[-pi, pi)``.  Used to show that a background
    charge moves the phase of the Id-Vg characteristic by
    ``2 pi q0 / e`` while leaving period and amplitude alone.
    """
    period_ref, _, phase_ref = fundamental_component(x, reference)
    period_shift, _, phase_shift = fundamental_component(x, shifted)
    if abs(period_ref - period_shift) > 0.05 * period_ref:
        raise AnalysisError(
            "signals have different periods; a phase shift is not defined"
        )
    delta = phase_shift - phase_ref
    return float((delta + np.pi) % (2.0 * np.pi) - np.pi)


__all__ = [
    "OscillationAnalysis",
    "analyze_oscillations",
    "fundamental_component",
    "phase_shift_between",
    "refine_period_by_peaks",
]
