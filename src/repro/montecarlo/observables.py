"""Observables and result containers of the Monte-Carlo engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..errors import AnalysisError
from .state import resolve_junction_column


@dataclass(frozen=True)
class EventRecord:
    """One executed Monte-Carlo event, for trajectory inspection."""

    time: float
    label: str
    electrons: Tuple[int, ...]


@dataclass
class TrajectoryResult:
    """Full record of a Monte-Carlo run.

    Attributes
    ----------
    duration:
        Total simulated time in seconds.
    event_count:
        Number of executed events.
    electron_transfers:
        Net signed electron count through each junction (``node_a`` ->
        ``node_b`` positive).
    records:
        Per-event records (only filled when the run was asked to record).
    final_electrons:
        Electron configuration at the end of the run.
    trap_flips:
        Number of trap transitions that occurred.
    """

    duration: float
    event_count: int
    electron_transfers: Dict[str, float]
    final_electrons: Tuple[int, ...]
    records: List[EventRecord] = field(default_factory=list)
    trap_flips: int = 0

    def mean_current(self, junction_name: str) -> float:
        """Average conventional current (A) through a junction over the run."""
        if self.duration <= 0.0:
            raise AnalysisError("run has zero duration; no current can be defined")
        transfers = self.electron_transfers.get(junction_name)
        if transfers is None:
            raise AnalysisError(
                f"unknown junction {junction_name!r}; known: "
                f"{sorted(self.electron_transfers)}"
            )
        return -transfers * E_CHARGE / self.duration

    def switching_times(self, label_prefix: str = "tunnel:") -> np.ndarray:
        """Times of all recorded events whose label starts with ``label_prefix``."""
        return np.array([record.time for record in self.records
                         if record.label.startswith(label_prefix)])


@dataclass(frozen=True)
class CurrentEstimate:
    """A Monte-Carlo current estimate with its statistical uncertainty.

    Attributes
    ----------
    mean:
        Estimated conventional current in ampere.
    stderr:
        Standard error of the mean, from block averaging.
    blocks:
        Number of blocks used for the error estimate.
    duration:
        Total simulated time (after warm-up) in seconds.
    events:
        Number of events contributing to the estimate.
    """

    mean: float
    stderr: float
    blocks: int
    duration: float
    events: int

    def agrees_with(self, reference: float, sigmas: float = 4.0,
                    absolute: float = 0.0) -> bool:
        """Whether ``reference`` lies within ``sigmas`` standard errors."""
        tolerance = sigmas * self.stderr + absolute
        return abs(self.mean - reference) <= tolerance


def block_average(values: Sequence[float], weights: Sequence[float],
                  block_count: int = 10) -> Tuple[float, float, int]:
    """Weighted block averaging for correlated time series.

    Parameters
    ----------
    values:
        Per-block accumulated quantity (e.g. charge transferred per block).
    weights:
        Per-block weights (e.g. block durations).
    block_count:
        Ignored if fewer blocks are supplied; kept for signature clarity.

    Returns
    -------
    (mean, stderr, blocks):
        The weighted mean of ``values / weights``, its standard error and the
        number of usable blocks.
    """
    values_array = np.asarray(values, dtype=float)
    weights_array = np.asarray(weights, dtype=float)
    usable = weights_array > 0.0
    values_array = values_array[usable]
    weights_array = weights_array[usable]
    blocks = values_array.size
    if blocks == 0:
        raise AnalysisError("no usable blocks for averaging")
    ratios = values_array / weights_array
    # Weighted means spelled out as np.average computes them (same sums,
    # same order, so bit-identical) without its per-call dispatch cost.
    total_weight = weights_array.sum()
    mean = float((ratios * weights_array).sum() / total_weight)
    if blocks == 1:
        return mean, float("inf"), 1
    variance = float(((ratios - mean) ** 2 * weights_array).sum()
                     / total_weight)
    stderr = float(np.sqrt(variance / (blocks - 1)))
    return mean, stderr, blocks


@dataclass
class EnsembleResult:
    """Batched record of an ensemble Monte-Carlo run (one row per replica).

    Attributes
    ----------
    durations:
        ``(R,)`` simulated time each replica advanced during the run.
    event_counts:
        ``(R,)`` events executed per replica.
    electron_transfers:
        ``(R, junctions)`` net signed electron counts through each junction
        during the run, columns ordered as :attr:`junction_names`.
    junction_names:
        Junction order of the transfer columns.
    final_electrons:
        ``(R, islands)`` electron configurations at the end of the run.
    """

    durations: np.ndarray
    event_counts: np.ndarray
    electron_transfers: np.ndarray
    junction_names: Tuple[str, ...]
    final_electrons: np.ndarray

    @property
    def replica_count(self) -> int:
        """Number of replicas ``R``."""
        return int(self.durations.size)

    @property
    def total_events(self) -> int:
        """Events executed across all replicas."""
        return int(self.event_counts.sum())

    def _column(self, junction_name: str) -> int:
        return resolve_junction_column(self.junction_names, junction_name,
                                       exception=AnalysisError)

    def transferred_charges(self, junction_name: str) -> np.ndarray:
        """``(R,)`` conventional charge (C) each replica moved through a junction."""
        return -self.electron_transfers[:, self._column(junction_name)] \
            * E_CHARGE

    def replica_currents(self, junction_name: str) -> np.ndarray:
        """``(R,)`` mean conventional current of each replica, in ampere.

        Replicas with zero duration (e.g. fully blockaded at T = 0) report a
        zero current rather than a division error.
        """
        charges = self.transferred_charges(junction_name)
        currents = np.zeros(self.replica_count)
        usable = self.durations > 0.0
        currents[usable] = charges[usable] / self.durations[usable]
        return currents

    def current_estimate(self, junction_name: str) -> "CurrentEstimate":
        """Replica-spread current estimate through one junction.

        The replicas are independent trajectories, so the weighted spread of
        their per-replica currents gives an unbiased standard error without
        the block-length tuning the single-trajectory
        :func:`block_average` estimator needs; the math (duration-weighted
        mean and spread) is shared with it, with replicas playing the role
        of blocks.
        """
        charges = self.transferred_charges(junction_name)
        usable = self.durations > 0.0
        if not usable.any():
            return CurrentEstimate(mean=0.0, stderr=0.0, blocks=0,
                                   duration=0.0, events=self.total_events)
        _, stderr, replicas = block_average(charges[usable],
                                            self.durations[usable])
        # The mean as total charge over total duration: mathematically the
        # duration-weighted replica mean block_average computes, but in the
        # exact ratio-of-sums form shared with the scalar estimator, so an
        # R = 1 ensemble and a scalar run at the same seed report
        # bit-identical currents.
        mean = float(charges[usable].sum() / self.durations[usable].sum())
        return CurrentEstimate(
            mean=mean,
            stderr=stderr,
            blocks=replicas,
            duration=float(self.durations[usable].sum()),
            events=self.total_events,
        )


@dataclass
class OccupationStatistics:
    """Histogram of visited electron configurations weighted by dwell time."""

    dwell_times: Dict[Tuple[int, ...], float] = field(default_factory=dict)

    def record(self, electrons: Tuple[int, ...], dwell: float) -> None:
        """Accumulate ``dwell`` seconds spent in configuration ``electrons``."""
        self.dwell_times[electrons] = self.dwell_times.get(electrons, 0.0) + dwell

    def probabilities(self) -> Dict[Tuple[int, ...], float]:
        """Normalised occupation probabilities."""
        total = sum(self.dwell_times.values())
        if total <= 0.0:
            return {}
        return {state: dwell / total for state, dwell in self.dwell_times.items()}

    def mean_electrons(self) -> np.ndarray:
        """Time-averaged electron number per island."""
        probabilities = self.probabilities()
        if not probabilities:
            raise AnalysisError("no occupation data recorded")
        states = np.array(list(probabilities.keys()), dtype=float)
        weights = np.array(list(probabilities.values()))
        return states.T @ weights


__all__ = [
    "CurrentEstimate",
    "EnsembleResult",
    "EventRecord",
    "OccupationStatistics",
    "TrajectoryResult",
    "block_average",
]
