"""Per-point current estimators, kept verbatim as a test oracle.

Before the sweep-level estimator, every Monte-Carlo sweep point ran its own
estimate from its phase record: a single trajectory's block average, or an
ensemble's replica spread through :class:`EnsembleResult`.  The arithmetic
of both is preserved here so ``test_sweep_estimator.py`` can assert that the
vectorised estimator reproduces it bit for bit.
"""

import numpy as np

from repro.constants import E_CHARGE
from repro.montecarlo.observables import CurrentEstimate, block_average


def block_estimate(times: np.ndarray, counts: np.ndarray,
                   transfers: np.ndarray, column: int) -> CurrentEstimate:
    """A trajectory's estimate from its ``(phases + 1, 1, ...)`` record.

    Row 1 ends the warm-up; rows 1 onwards bound the blocks.
    """
    transferred = transfers[1:, 0, column]
    clock = times[1:, 0]
    charges = -np.diff(transferred) * E_CHARGE
    durations = np.diff(clock)
    events = int(counts[-1, 0] - counts[1, 0])
    usable = durations > 0.0
    if not usable.any():
        return CurrentEstimate(mean=0.0, stderr=0.0, blocks=0, duration=0.0,
                               events=events)
    _, stderr, block_count = block_average(charges[usable],
                                           durations[usable])
    total_charge = -(transferred[-1] - transferred[0]) * E_CHARGE
    total_elapsed = clock[-1] - clock[0]
    return CurrentEstimate(
        mean=float(total_charge / total_elapsed),
        stderr=stderr,
        blocks=block_count,
        duration=float(sum(durations[usable].tolist())),
        events=events,
    )


def replica_estimate(durations: np.ndarray, electron_transfers: np.ndarray,
                     event_counts: np.ndarray,
                     column: int) -> CurrentEstimate:
    """An ensemble window's estimate from per-replica durations and tallies."""
    charges = -electron_transfers[:, column] * E_CHARGE
    total_events = int(event_counts.sum())
    usable = durations > 0.0
    if not usable.any():
        return CurrentEstimate(mean=0.0, stderr=0.0, blocks=0,
                               duration=0.0, events=total_events)
    _, stderr, replicas = block_average(charges[usable], durations[usable])
    mean = float(charges[usable].sum() / durations[usable].sum())
    return CurrentEstimate(
        mean=mean,
        stderr=stderr,
        blocks=replicas,
        duration=float(durations[usable].sum()),
        events=total_events,
    )
