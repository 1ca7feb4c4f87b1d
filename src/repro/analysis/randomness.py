"""Statistical randomness tests for the single-electron RNG (experiment E6).

A compact battery in the spirit of the NIST SP 800-22 suite, restricted to
tests that are meaningful for the 10-100 kbit streams the simulated RNG
produces: monobit frequency, block frequency, runs, longest run of ones,
serial correlation and approximate entropy.  Every test returns a p-value;
the conventional acceptance criterion is ``p >= 0.01``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError

#: Conventional significance level for accepting a stream as random.
SIGNIFICANCE_LEVEL = 0.01


def _erfc(x: float) -> float:
    from scipy import special

    return float(special.erfc(x))


def _gammaincc(a: float, x: float) -> float:
    from scipy import special

    return float(special.gammaincc(a, x))


def _as_bits(bits: Sequence[int]) -> np.ndarray:
    array = np.asarray(bits, dtype=np.int64)
    if array.ndim != 1 or array.size == 0:
        raise AnalysisError("bit stream must be a non-empty 1-D sequence")
    if np.any((array != 0) & (array != 1)):
        raise AnalysisError("bit stream may only contain 0 and 1")
    return array


def monobit_test(bits: Sequence[int]) -> float:
    """Frequency (monobit) test: are zeros and ones balanced?"""
    array = _as_bits(bits)
    if array.size < 100:
        raise AnalysisError("monobit test needs at least 100 bits")
    partial_sum = np.sum(2 * array - 1)
    statistic = abs(partial_sum) / math.sqrt(array.size)
    return _erfc(statistic / math.sqrt(2.0))


def block_frequency_test(bits: Sequence[int], block_size: int = 128) -> float:
    """Frequency-within-blocks test."""
    array = _as_bits(bits)
    if block_size < 8:
        raise AnalysisError("block size must be at least 8")
    blocks = array.size // block_size
    if blocks < 4:
        raise AnalysisError("need at least 4 full blocks")
    trimmed = array[:blocks * block_size].reshape(blocks, block_size)
    proportions = trimmed.mean(axis=1)
    chi_squared = 4.0 * block_size * np.sum((proportions - 0.5) ** 2)
    return _gammaincc(blocks / 2.0, chi_squared / 2.0)


def runs_test(bits: Sequence[int]) -> float:
    """Runs test: does the number of 0/1 runs match expectation?"""
    array = _as_bits(bits)
    if array.size < 100:
        raise AnalysisError("runs test needs at least 100 bits")
    proportion = array.mean()
    if abs(proportion - 0.5) >= 2.0 / math.sqrt(array.size):
        return 0.0  # fails the monobit prerequisite
    runs = 1 + int(np.sum(array[1:] != array[:-1]))
    expected = 2.0 * array.size * proportion * (1.0 - proportion)
    numerator = abs(runs - expected)
    denominator = 2.0 * math.sqrt(2.0 * array.size) * proportion * (1.0 - proportion)
    if denominator == 0.0:
        return 0.0
    return _erfc(numerator / denominator)


def longest_run_of_ones_test(bits: Sequence[int]) -> float:
    """Longest-run-of-ones-in-a-block test (NIST parameters for 128-bit blocks).

    The per-block longest runs are extracted for all blocks at once: the
    blocks are zero-padded on both sides, run boundaries come from one
    ``diff`` over the whole matrix, and the per-block maximum run length from
    a single ``maximum.at`` scatter — no Python loop over blocks or bits.
    """
    array = _as_bits(bits)
    block_size = 128
    blocks = array.size // block_size
    if blocks < 4:
        raise AnalysisError("longest-run test needs at least 512 bits")
    categories = np.arange(4, 10)
    probabilities = [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]
    trimmed = array[:blocks * block_size].reshape(blocks, block_size)
    longest = _longest_runs(trimmed)
    # The categories are contiguous, so binning is a clip plus a bincount.
    clipped = np.clip(longest, categories[0], categories[-1])
    counts = np.bincount(clipped - categories[0],
                         minlength=categories.size).astype(float)
    expected = blocks * np.asarray(probabilities)
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    return _gammaincc((categories.size - 1) / 2.0, chi_squared / 2.0)


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in every row of a 0/1 matrix, vectorized."""
    rows = blocks.shape[0]
    padded = np.zeros((rows, blocks.shape[1] + 2), dtype=np.int64)
    padded[:, 1:-1] = blocks
    changes = np.diff(padded, axis=1)
    start_rows, start_columns = np.nonzero(changes == 1)
    end_columns = np.nonzero(changes == -1)[1]
    # Runs alternate start/end within each row, so the k-th start pairs with
    # the k-th end in row-major order.
    longest = np.zeros(rows, dtype=np.int64)
    np.maximum.at(longest, start_rows, end_columns - start_columns)
    return longest


def serial_correlation_test(bits: Sequence[int], lag: int = 1) -> float:
    """Autocorrelation at a given lag, mapped to a two-sided p-value."""
    array = _as_bits(bits).astype(float)
    if array.size <= lag + 10:
        raise AnalysisError("stream too short for the requested lag")
    x = array[:-lag] - array.mean()
    y = array[lag:] - array.mean()
    variance = np.sum((array - array.mean()) ** 2)
    if variance == 0.0:
        return 0.0
    correlation = float(np.sum(x * y) / variance)
    statistic = abs(correlation) * math.sqrt(array.size)
    return _erfc(statistic / math.sqrt(2.0))


def serial_correlation_profile(bits: Sequence[int],
                               max_lag: int = 16) -> np.ndarray:
    """Autocorrelation coefficients at lags ``1 .. max_lag``, vectorized.

    Each coefficient matches :func:`serial_correlation_test`'s statistic at
    that lag exactly (same centring, same normalisation) but the whole
    profile is computed as ``max_lag`` array dot products over the centred
    stream — the correlation formulation — instead of a Python loop over
    every bit.
    """
    array = _as_bits(bits).astype(float)
    if max_lag < 1:
        raise AnalysisError("max_lag must be at least 1")
    if array.size <= max_lag + 10:
        raise AnalysisError("stream too short for the requested maximum lag")
    centred = array - array.mean()
    variance = float(np.sum(centred ** 2))
    if variance == 0.0:
        return np.zeros(max_lag)
    return np.array([float(centred[:-lag] @ centred[lag:]) / variance
                     for lag in range(1, max_lag + 1)])


def approximate_entropy_test(bits: Sequence[int], block_length: int = 2) -> float:
    """Approximate-entropy test (NIST SP 800-22 section 2.12).

    The ``m``-bit pattern frequencies are counted without a Python loop over
    the stream: every overlapping window is encoded as a base-2 integer
    through a strided sliding-window view and the pattern histogram is one
    ``bincount`` — the O(n) ``range(n)`` tuple-building loop of the original
    implementation collapsed to three array operations.
    """
    array = _as_bits(bits)
    n = array.size
    if n < 100:
        raise AnalysisError("approximate-entropy test needs at least 100 bits")

    def phi(m: int) -> float:
        if m == 0:
            return 0.0
        padded = np.concatenate([array, array[:m - 1]]) if m > 1 else array
        windows = np.lib.stride_tricks.sliding_window_view(padded, m)
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
        codes = windows @ weights
        if (1 << m) <= 4 * n:
            counts = np.bincount(codes, minlength=1 << m)
            counts = counts[counts > 0]
        else:
            # A 2^m-slot histogram would dwarf the stream itself for large
            # block lengths; count only the (at most n) occurring patterns,
            # as the original dictionary implementation did.
            counts = np.unique(codes, return_counts=True)[1]
        probabilities = counts / n
        return float(np.sum(probabilities * np.log(probabilities)))

    ap_en = phi(block_length) - phi(block_length + 1)
    chi_squared = 2.0 * n * (math.log(2.0) - ap_en)
    return _gammaincc(2 ** (block_length - 1), chi_squared / 2.0)


@dataclass(frozen=True)
class RandomnessReport:
    """Aggregated outcome of the randomness battery."""

    p_values: Dict[str, float]
    significance: float = SIGNIFICANCE_LEVEL

    @property
    def passed(self) -> Dict[str, bool]:
        """Per-test pass/fail at the configured significance level."""
        return {name: p >= self.significance for name, p in self.p_values.items()}

    @property
    def all_passed(self) -> bool:
        """Whether every test passed."""
        return all(self.passed.values())

    @property
    def pass_count(self) -> int:
        """Number of tests passed."""
        return sum(self.passed.values())

    def summary_rows(self) -> List[Tuple[str, float, str]]:
        """``(test, p_value, PASS/FAIL)`` rows for table printing."""
        return [(name, p, "PASS" if p >= self.significance else "FAIL")
                for name, p in self.p_values.items()]


def run_randomness_battery(bits: Sequence[int],
                           significance: float = SIGNIFICANCE_LEVEL
                           ) -> RandomnessReport:
    """Run the full battery on a bit stream and collect the p-values."""
    array = _as_bits(bits)
    p_values = {
        "monobit": monobit_test(array),
        "block_frequency": block_frequency_test(array),
        "runs": runs_test(array),
        "longest_run": longest_run_of_ones_test(array),
        "serial_correlation": serial_correlation_test(array),
        "approximate_entropy": approximate_entropy_test(array),
    }
    return RandomnessReport(p_values=p_values, significance=significance)


__all__ = [
    "RandomnessReport",
    "SIGNIFICANCE_LEVEL",
    "approximate_entropy_test",
    "block_frequency_test",
    "longest_run_of_ones_test",
    "monobit_test",
    "run_randomness_battery",
    "runs_test",
    "serial_correlation_profile",
    "serial_correlation_test",
]
