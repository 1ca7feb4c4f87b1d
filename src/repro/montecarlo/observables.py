"""Observables and result containers of the Monte-Carlo engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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


class CurrentEstimates:
    """Current estimates of many points at once (one array entry per point).

    The fields are those of :class:`CurrentEstimate`, as ``(points,)``
    arrays; :meth:`point` extracts one estimate.  (A plain class: a
    dataclass would cost every ``import repro`` its class generation.)
    """

    __slots__ = ("means", "stderrs", "blocks", "durations", "events")

    def __init__(self, means: np.ndarray, stderrs: np.ndarray,
                 blocks: np.ndarray, durations: np.ndarray,
                 events: np.ndarray) -> None:
        self.means, self.stderrs, self.blocks = means, stderrs, blocks
        self.durations, self.events = durations, events

    def point(self, index: int) -> CurrentEstimate:
        """The estimate of point ``index``."""
        return CurrentEstimate(mean=float(self.means[index]),
                               stderr=float(self.stderrs[index]),
                               blocks=int(self.blocks[index]),
                               duration=float(self.durations[index]),
                               events=int(self.events[index]))


def _row_spread(values: np.ndarray, weights: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`block_average` standard errors of every row, vectorised.

    Returns ``(stderrs, blocks, full)``: rows whose every block is usable
    (``full``) are evaluated together with the same sums over the same
    contiguous rows, so bit for bit as :func:`block_average` evaluates
    them; rows with an empty (zero-weight) block go through
    :func:`block_average` one by one, and rows without a usable block get
    a zero error.
    """
    blocks = (weights > 0.0).sum(axis=1)
    width = values.shape[1]
    stderrs = np.zeros(len(values))
    full = blocks == width
    if width == 1:
        stderrs[full] = np.inf
    elif full.any():
        rows_w = weights[full]
        ratios = values[full] / rows_w
        total_weight = rows_w.sum(axis=1)
        mean = (ratios * rows_w).sum(axis=1) / total_weight
        variance = ((ratios - mean[:, None]) ** 2 * rows_w).sum(axis=1) \
            / total_weight
        stderrs[full] = np.sqrt(variance / (width - 1))
    for row in np.nonzero(~full & (blocks > 0))[0]:
        stderrs[row] = block_average(values[row], weights[row])[1]
    return stderrs, blocks, full


def block_estimates(transferred: np.ndarray, clock: np.ndarray,
                    events: np.ndarray) -> CurrentEstimates:
    """Block-averaged current estimates of single trajectories, one per row.

    ``transferred`` and ``clock`` are ``(points, blocks + 1)``: a
    junction's net electron tally and the clock at every block boundary of
    each point's estimate window; ``events`` the window's event counts.
    The mean is the whole-window charge over the whole-window duration
    (mathematically the duration-weighted block mean, but in the
    ratio-of-sums form shared with :func:`replica_estimates`, so the two
    are bit-identical at equal trajectories); :func:`block_average`
    supplies the standard error.  Blocks after a blockade are empty (zero
    duration) and drop out; a row with no usable block reports zeros.
    """
    charges = -np.diff(transferred, axis=1) * E_CHARGE
    durations = np.diff(clock, axis=1)
    stderrs, blocks, _ = _row_spread(charges, durations)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = -(transferred[:, -1] - transferred[:, 0]) * E_CHARGE \
            / (clock[:, -1] - clock[:, 0])
    means[blocks == 0] = 0.0
    # Left-to-right duration sums; the empty blocks add exact zeros.
    totals = durations.cumsum(axis=1)[:, -1]
    return CurrentEstimates(means=means, stderrs=stderrs, blocks=blocks,
                            durations=totals, events=np.asarray(events))


def replica_estimates(charges: np.ndarray, durations: np.ndarray,
                      events: np.ndarray) -> CurrentEstimates:
    """Replica-spread current estimates, one per row.

    ``charges`` and ``durations`` are ``(points, replicas)``: the
    conventional charge each replica moved through a junction and the time
    it advanced over the estimate window; ``events`` the window's total
    event counts.  The replicas are independent trajectories, so the
    weighted spread of their currents gives an unbiased standard error
    without the block-length tuning of single-trajectory averaging (the
    math is :func:`block_average`'s, with replicas as blocks).  The mean is
    total charge over total duration of the replicas that advanced; a row
    where none did reports zeros.
    """
    stderrs, blocks, full = _row_spread(charges, durations)
    means = np.zeros(len(charges))
    totals = np.zeros(len(charges))
    totals[full] = durations[full].sum(axis=1)
    means[full] = charges[full].sum(axis=1) / totals[full]
    for row in np.nonzero(~full & (blocks > 0))[0]:
        usable = durations[row] > 0.0
        totals[row] = durations[row][usable].sum()
        means[row] = charges[row][usable].sum() / totals[row]
    return CurrentEstimates(means=means, stderrs=stderrs, blocks=blocks,
                            durations=totals, events=np.asarray(events))


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

        The one-row case of :func:`replica_estimates`: an R = 1 ensemble
        and a scalar run at the same seed report bit-identical currents.
        """
        return replica_estimates(
            self.transferred_charges(junction_name)[None],
            self.durations[None], np.array([self.total_events])).point(0)


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
    "CurrentEstimates",
    "EnsembleResult",
    "EventRecord",
    "OccupationStatistics",
    "TrajectoryResult",
    "block_average",
    "block_estimates",
    "replica_estimates",
]
