"""Coulomb-blockade analysis: thresholds, gaps and staircases.

These helpers extract the blockade signatures of an Id-Vd sweep: the
threshold voltage where conduction sets in, the width of the zero-current
gap, and the positions of Coulomb-staircase steps.  They back the blockade
parts of experiments E1 and E7 and the SET logic analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class BlockadeAnalysis:
    """Blockade descriptors of an Id-Vd characteristic.

    Attributes
    ----------
    positive_threshold:
        Drain voltage (> 0) where the current first exceeds the threshold
        criterion, or ``None`` if the sweep never conducts on that side.
    negative_threshold:
        Same for negative drain voltages.
    gap:
        Total width of the blockaded region in volt (``None`` when either
        side never conducts inside the sweep).
    asymptotic_resistance:
        Slope-derived resistance of the high-bias branch, in ohm.
    """

    positive_threshold: Optional[float]
    negative_threshold: Optional[float]
    gap: Optional[float]
    asymptotic_resistance: float


def conduction_threshold(voltages: Sequence[float], currents: Sequence[float],
                         fraction: float = 0.05, side: str = "positive"
                         ) -> Optional[float]:
    """Voltage where |I| first exceeds ``fraction`` of the maximum |I|.

    Parameters
    ----------
    voltages, currents:
        The Id-Vd sweep (any ordering; it is sorted internally).
    fraction:
        Threshold criterion relative to the largest current magnitude in the
        sweep.
    side:
        ``"positive"`` or ``"negative"`` branch.
    """
    if side not in ("positive", "negative"):
        raise AnalysisError(f"side must be 'positive' or 'negative', got {side!r}")
    v = np.asarray(voltages, dtype=float)
    i = np.asarray(currents, dtype=float)
    if v.shape != i.shape or v.size < 3:
        raise AnalysisError("need matching voltage/current arrays with >= 3 points")
    order = np.argsort(v)
    v, i = v[order], i[order]
    reference = np.abs(i).max()
    if reference <= 0.0:
        return None
    threshold = fraction * reference
    if side == "positive":
        mask = v > 0.0
        candidates = v[mask][np.abs(i[mask]) >= threshold]
        return float(candidates.min()) if candidates.size else None
    mask = v < 0.0
    candidates = v[mask][np.abs(i[mask]) >= threshold]
    return float(candidates.max()) if candidates.size else None


def analyze_blockade(voltages: Sequence[float], currents: Sequence[float],
                     fraction: float = 0.05) -> BlockadeAnalysis:
    """Full blockade analysis of an Id-Vd sweep."""
    v = np.asarray(voltages, dtype=float)
    i = np.asarray(currents, dtype=float)
    positive = conduction_threshold(v, i, fraction, "positive")
    negative = conduction_threshold(v, i, fraction, "negative")
    gap = None
    if positive is not None and negative is not None:
        gap = float(positive - negative)

    order = np.argsort(v)
    v_sorted, i_sorted = v[order], i[order]
    # High-bias resistance from the outer 20% of the sweep on each side.
    count = max(2, v_sorted.size // 5)
    slopes = []
    for segment_v, segment_i in ((v_sorted[-count:], i_sorted[-count:]),
                                 (v_sorted[:count], i_sorted[:count])):
        if np.ptp(segment_v) > 0.0:
            slope = np.polyfit(segment_v, segment_i, 1)[0]
            if slope > 0.0:
                slopes.append(slope)
    if not slopes:
        raise AnalysisError("cannot estimate the asymptotic resistance from this sweep")
    resistance = float(1.0 / np.mean(slopes))
    return BlockadeAnalysis(
        positive_threshold=positive,
        negative_threshold=negative,
        gap=gap,
        asymptotic_resistance=resistance,
    )


def staircase_steps(voltages: Sequence[float], currents: Sequence[float],
                    smoothing: int = 3, prominence: float = 0.2
                    ) -> List[float]:
    """Voltages of Coulomb-staircase steps (peaks of dI/dV).

    Parameters
    ----------
    voltages, currents:
        The Id-Vd sweep on a uniform, increasing grid.
    smoothing:
        Width (samples) of the moving-average filter applied to dI/dV.
    prominence:
        Fraction of the maximum dI/dV a peak must reach to count as a step.
    """
    v = np.asarray(voltages, dtype=float)
    i = np.asarray(currents, dtype=float)
    if v.size < 8:
        raise AnalysisError("need at least 8 samples for staircase analysis")
    conductance = np.gradient(i, v)
    if smoothing > 1:
        kernel = np.ones(smoothing) / smoothing
        conductance = np.convolve(conductance, kernel, mode="same")
    maximum = conductance.max()
    if maximum <= 0.0:
        return []
    threshold = prominence * maximum
    steps: List[float] = []
    for index in range(1, v.size - 1):
        if (conductance[index] >= conductance[index - 1]
                and conductance[index] > conductance[index + 1]
                and conductance[index] >= threshold):
            steps.append(float(v[index]))
    return steps


__all__ = ["BlockadeAnalysis", "analyze_blockade", "conduction_threshold",
           "staircase_steps"]
