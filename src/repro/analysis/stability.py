"""Charge-stability (Coulomb-diamond) diagrams.

A stability diagram maps the SET current over the (gate voltage, drain
voltage) plane; the diamond-shaped blockade regions visualise at a glance the
two numbers the paper keeps coming back to: the gate period ``e/C_g``
(diamond width) and the blockade voltage ``e/C_sigma`` (diamond height).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..errors import AnalysisError


@dataclass(frozen=True)
class StabilityDiagram:
    """A computed stability diagram.

    Attributes
    ----------
    gate_voltages, drain_voltages:
        The axes of the map, in volt.
    currents:
        2-D array of drain currents, shape ``(len(drain_voltages),
        len(gate_voltages))``.
    """

    gate_voltages: np.ndarray
    drain_voltages: np.ndarray
    currents: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the current map."""
        return self.currents.shape

    def blockade_fraction(self, threshold_fraction: float = 0.01) -> float:
        """Fraction of the map where the device is blockaded."""
        reference = np.abs(self.currents).max()
        if reference <= 0.0:
            return 1.0
        return float(np.mean(np.abs(self.currents) < threshold_fraction * reference))

    def diamond_height(self, threshold_fraction: float = 0.02) -> float:
        """Maximum blockade extent along the drain-voltage axis, in volt.

        Theory: ``e / C_sigma`` for a single SET.
        """
        reference = np.abs(self.currents).max()
        if reference <= 0.0:
            raise AnalysisError("map carries no current anywhere")
        blocked = np.abs(self.currents) < threshold_fraction * reference
        best = 0.0
        for column in range(blocked.shape[1]):
            rows = np.nonzero(blocked[:, column])[0]
            if rows.size:
                extent = self.drain_voltages[rows.max()] - self.drain_voltages[rows.min()]
                best = max(best, float(extent))
        return best

    def diamond_width(self, threshold_fraction: float = 0.02) -> float:
        """Gate-voltage period of the diamond pattern (theory: ``e / C_g``).

        Estimated from the median spacing of the conducting regions along the
        gate axis.  The row at roughly half the maximum drain bias is used: at
        very small bias the conductance peaks can be narrower than the gate
        grid, while at half-bias the conducting regions are wide and the
        periodicity is unambiguous.
        """
        from .oscillations import refine_period_by_peaks

        target = 0.5 * float(np.max(np.abs(self.drain_voltages)))
        candidate_rows = list(np.argsort(np.abs(np.abs(self.drain_voltages) - target)))
        candidate_rows.append(int(np.argmin(np.abs(self.drain_voltages))))
        last_error: AnalysisError | None = None
        for row_index in candidate_rows:
            row = np.abs(self.currents[int(row_index)])
            if row.max() <= 0.0:
                continue
            try:
                return float(refine_period_by_peaks(self.gate_voltages, row))
            except AnalysisError as error:
                last_error = error
        raise AnalysisError(
            "no gate periodicity could be extracted from the stability map"
        ) from last_error


def compute_stability_diagram(set_model, gate_voltages: Sequence[float],
                              drain_voltages: Sequence[float]) -> StabilityDiagram:
    """Compute a stability diagram from any model with ``drain_current(vd, vg)``.

    Both :class:`~repro.compact.set_model.AnalyticSETModel` and
    :class:`~repro.compact.set_model.MasterEquationSETModel` qualify.  Models
    that expose a batched ``drain_current_map(drain, gate)`` (all the SET
    models in :mod:`repro.compact.set_model` do) evaluate the whole map in
    one call — one broadcast expression for the analytic model, one
    structure-reusing master-equation sweep for the exact one — instead of
    ``len(drain) * len(gate)`` scalar calls.
    """
    gate = np.asarray(gate_voltages, dtype=float)
    drain = np.asarray(drain_voltages, dtype=float)
    if gate.size < 2 or drain.size < 2:
        raise AnalysisError("need at least a 2 x 2 grid")
    if hasattr(set_model, "drain_current_map"):
        currents = np.asarray(set_model.drain_current_map(drain, gate),
                              dtype=float)
        if currents.shape != (drain.size, gate.size):
            raise AnalysisError(
                f"drain_current_map returned shape {currents.shape}, "
                f"expected {(drain.size, gate.size)}")
    else:
        currents = np.empty((drain.size, gate.size))
        for row, vd in enumerate(drain):
            for column, vg in enumerate(gate):
                currents[row, column] = set_model.drain_current(float(vd),
                                                                float(vg))
    return StabilityDiagram(gate_voltages=gate, drain_voltages=drain,
                            currents=currents)


def theoretical_diamond(gate_capacitance: float, total_capacitance: float
                        ) -> Tuple[float, float]:
    """Theoretical diamond (width, height) = ``(e/C_g, e/C_sigma)`` in volt."""
    if gate_capacitance <= 0.0 or total_capacitance <= 0.0:
        raise AnalysisError("capacitances must be positive")
    return E_CHARGE / gate_capacitance, E_CHARGE / total_capacitance


__all__ = ["StabilityDiagram", "compute_stability_diagram", "theoretical_diamond"]
