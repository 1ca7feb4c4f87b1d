"""Newton-Raphson DC solver for compact circuits.

This is the "SPICE-based simulator" half of the paper's §4: nodal analysis of
circuits containing compact device models (MOSFETs, analytic SETs, resistors,
current sources).  Unknowns are the voltages of the free nodes; the equations
are Kirchhoff's current law at every free node.  The Jacobian is evaluated by
finite differences, which keeps device models trivially simple at the cost of
a few extra model evaluations — irrelevant for the circuit sizes of interest.

Robustness measures:

* adaptive damping (step halving) when a Newton step increases the residual,
* automatic multi-start (gmin-style homotopy over initial guesses) when plain
  Newton fails, which matters because the SET's periodic characteristic gives
  the KCL equations many near-solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..errors import ConvergenceError, SolverError
from .circuit import CompactCircuit


@dataclass
class DCSolution:
    """Solution of a DC operating point."""

    voltages: Dict[str, float]
    iterations: int
    residual_norm: float

    def voltage(self, node: str) -> float:
        """Voltage of a node (fixed or free), in volt."""
        try:
            return self.voltages[node]
        except KeyError:
            raise SolverError(
                f"unknown node {node!r}; known nodes: {sorted(self.voltages)}"
            ) from None


class DCSolver:
    """Newton-Raphson solver for :class:`CompactCircuit` operating points.

    Parameters
    ----------
    circuit:
        The compact circuit to solve.
    max_iterations:
        Newton iteration budget per start point.
    tolerance:
        Convergence threshold on the infinity norm of the KCL residual, in
        ampere.
    voltage_step:
        Finite-difference step for the numerical Jacobian, in volt.
    """

    def __init__(self, circuit: CompactCircuit, max_iterations: int = 100,
                 tolerance: float = 1e-12, voltage_step: float = 1e-6) -> None:
        if max_iterations < 1:
            raise SolverError("max_iterations must be at least 1")
        if tolerance <= 0.0 or voltage_step <= 0.0:
            raise SolverError("tolerance and voltage_step must be positive")
        self.circuit = circuit
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.voltage_step = voltage_step

    # -------------------------------------------------------------- interface

    def solve(self, initial_guess: Optional[Mapping[str, float]] = None) -> DCSolution:
        """Find the DC operating point.

        Parameters
        ----------
        initial_guess:
            Optional starting voltages for (a subset of) the free nodes.
            Unspecified nodes start at 0 V.  Sweeps pass the previous solution
            here to track a branch continuously.
        """
        free = self.circuit.free_nodes
        if not free:
            return DCSolution(voltages=dict(self.circuit.fixed_nodes), iterations=0,
                              residual_norm=0.0)

        starts = self._starting_points(free, initial_guess)
        failure: Optional[ConvergenceError] = None
        for start in starts:
            try:
                return self._newton(free, start)
            except ConvergenceError as exc:
                failure = exc
        assert failure is not None
        raise failure

    def operating_point(self, **node_voltages: float) -> DCSolution:
        """Convenience wrapper: solve with keyword initial guesses."""
        return self.solve(initial_guess=node_voltages or None)

    # -------------------------------------------------------------- internals

    def _starting_points(self, free: List[str],
                         initial_guess: Optional[Mapping[str, float]]
                         ) -> List[np.ndarray]:
        zero = np.zeros(len(free))
        points = []
        if initial_guess is not None:
            guess = np.array([float(initial_guess.get(node, 0.0)) for node in free])
            points.append(guess)
        points.append(zero)
        # Mid-rail and rail starts help when the circuit hangs devices between
        # supplies (the quantizer and RNG circuits do).
        fixed = self.circuit.fixed_nodes
        if fixed:
            high = max(fixed.values())
            low = min(fixed.values())
            if high != 0.0 or low != 0.0:
                points.append(np.full(len(free), 0.5 * (high + low)))
                points.append(np.full(len(free), high))
                points.append(np.full(len(free), low))
        return points

    def _assemble_voltages(self, free: List[str], values: np.ndarray
                           ) -> Dict[str, float]:
        voltages = dict(self.circuit.fixed_nodes)
        voltages.update({node: float(value) for node, value in zip(free, values)})
        return voltages

    def _residual(self, free: List[str], values: np.ndarray) -> np.ndarray:
        voltages = self._assemble_voltages(free, values)
        residuals = self.circuit.residual_currents(voltages)
        return np.array([residuals[node] for node in free])

    def _jacobian(self, free: List[str], values: np.ndarray,
                  residual: np.ndarray) -> np.ndarray:
        size = len(free)
        jacobian = np.empty((size, size))
        for column in range(size):
            perturbed = values.copy()
            perturbed[column] += self.voltage_step
            jacobian[:, column] = (self._residual(free, perturbed) - residual) \
                / self.voltage_step
        return jacobian

    def _newton(self, free: List[str], start: np.ndarray) -> DCSolution:
        values = start.astype(float).copy()
        residual = self._residual(free, values)
        norm = float(np.max(np.abs(residual)))
        for iteration in range(1, self.max_iterations + 1):
            if norm <= self.tolerance:
                return DCSolution(
                    voltages=self._assemble_voltages(free, values),
                    iterations=iteration - 1,
                    residual_norm=norm,
                )
            jacobian = self._jacobian(free, values, residual)
            try:
                step = np.linalg.solve(jacobian, -residual)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jacobian, -residual, rcond=None)[0]
            if not np.all(np.isfinite(step)):
                raise ConvergenceError("Newton step is not finite",
                                       iterations=iteration, residual=norm)
            # Damped update: halve the step until the residual stops growing.
            damping = 1.0
            for _ in range(30):
                candidate = values + damping * step
                candidate_residual = self._residual(free, candidate)
                candidate_norm = float(np.max(np.abs(candidate_residual)))
                if candidate_norm <= norm or candidate_norm <= self.tolerance:
                    break
                damping *= 0.5
            values = values + damping * step
            residual = self._residual(free, values)
            norm = float(np.max(np.abs(residual)))
        if norm <= self.tolerance * 10.0:
            # Accept near-converged points rather than failing a whole sweep.
            return DCSolution(voltages=self._assemble_voltages(free, values),
                              iterations=self.max_iterations, residual_norm=norm)
        raise ConvergenceError(
            f"Newton iteration did not converge (residual {norm:.3e} A)",
            iterations=self.max_iterations, residual=norm)


__all__ = ["DCSolver", "DCSolution"]
