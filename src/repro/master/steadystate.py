"""Steady-state solution of the single-electron master equation.

The stationary probability vector ``p`` satisfies ``M p = 0`` with
``sum(p) = 1``.  From ``p`` and the transition structure the solver derives
the observables that every experiment in the paper needs: junction currents,
island occupation probabilities and mean island charges/potentials.

Two solver backends share one algorithm:

* ``method="dense"`` — the original NumPy path (``np.linalg.solve``).  It is
  the correctness baseline and the default for small windows.  A cheap
  numpy reachability test recognises the common case, a reachable set that
  is one closed class, and solves it directly; only a genuinely reducible
  chain runs the closed-class analysis, through the same
  ``scipy.sparse.csgraph`` components the sparse path uses.
* ``method="sparse"`` — ``scipy.sparse`` throughout: the generator is a CSR
  matrix, reachability and closed communicating classes come from
  ``scipy.sparse.csgraph`` (BFS + strongly connected components), and the
  balance equations are solved with a sparse LU factorisation (``splu``) with
  an iterative fallback (GMRES with a diagonal preconditioner, then power
  iteration).  This is what makes ≥10⁴-state windows — which the dense path
  cannot even allocate comfortably — routine.

``method="auto"`` (the default) picks dense below
:data:`DENSE_STATE_CUTOFF` states and sparse above.

Every operating point — :meth:`MasterEquationSolver.solve` and every point of
:meth:`MasterEquationSolver.sweep_source` and
:meth:`MasterEquationSolver.sweep_gate_drain` — goes through one stacked
routine, ``solve`` being a stack of one: one greedy ground-state walk over
the whole stack places each point's window and start state; the points that
share a window share its cached
:class:`~repro.master.transitions.TransitionTable`, one rate-kernel call and
batched dense solves (one ``np.linalg.solve`` per reachable set), and the
results equal one-point solves bit for bit.  An automatic window widens
until its boundary states hold no probability worth keeping
(:data:`~repro.master.statespace.BOUNDARY_MASS_TOLERANCE`); an explicit
window is solved as given.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import LinearOperator, gmres, splu

from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SolverError
from ..resilience.events import emit_degradation
from ..resilience.faults import inject
from .builder import RateMatrixBuilder, Transition
from .statespace import (_WIDEN_STEP, BOUNDARY_MASS_TOLERANCE, StateSpace,
                         walk_windows, widened_half, window_bounds)
from .transitions import TransitionTable

#: ``method="auto"`` switches from the dense to the sparse backend above this
#: window size.  Below it the dense direct solve is faster (no factorisation
#: setup) and numerically identical for all practical purposes.
DENSE_STATE_CUTOFF = 400

_METHODS = ("auto", "dense", "sparse")

#: Largest transient block the reducible-chain fallback may densify when the
#: sparse LU factorisation fails; beyond it a dense copy would defeat the
#: point of the sparse path (8 N^2 bytes), so the solver raises instead.
_DENSE_FALLBACK_LIMIT = 2_000

#: Generator entries (points x states^2) one stacked dense solve holds at
#: once: 2**18 float64 entries are 2 MiB, about 5 000 points of a 7-state
#: window or one point of a 400-state one.
_STACK_ELEMENTS = 2 ** 18

#: One-point reachability plans (:func:`_stack_plan`) per window table,
#: at most this many per table.
_PLANS_PER_WINDOW = 64
_ONE_POINT_PLANS: "weakref.WeakKeyDictionary[TransitionTable, dict]" = \
    weakref.WeakKeyDictionary()


def validate_solver_method(method: str) -> None:
    """Raise :class:`SolverError` unless ``method`` is a known backend."""
    if method not in _METHODS:
        raise SolverError(
            f"unknown solver method {method!r}; choose from {_METHODS}")


def resolve_solver_method(method: str, state_count: int) -> str:
    """Resolve ``"auto"`` to a concrete backend for a window size."""
    if method != "auto":
        return method
    return "dense" if state_count <= DENSE_STATE_CUTOFF else "sparse"


@dataclass
class SteadyStateSolution:
    """Stationary solution of the master equation at one operating point."""

    circuit_name: str
    temperature: float
    space: StateSpace
    probabilities: np.ndarray
    #: Builds :attr:`transitions` on first access.
    transition_source: Callable[[], List[Transition]] = field(repr=False,
                                                              compare=False)
    #: Conventional current (ampere) flowing from ``node_a`` to ``node_b`` of
    #: each junction, keyed by junction name.
    junction_currents: Dict[str, float] = field(default_factory=dict)

    @functools.cached_property
    def transitions(self) -> List[Transition]:
        """Every transition with a positive rate (built on first access)."""
        return self.transition_source()

    @property
    def state_count(self) -> int:
        """Number of charge states in the solution window."""
        return self.space.size

    def occupation_probability(self, configuration: Sequence[int]) -> float:
        """Probability of a specific electron configuration (0 if outside window)."""
        key = tuple(int(v) for v in configuration)
        if key not in self.space.index:
            return 0.0
        return float(self.probabilities[self.space.index[key]])

    def mean_electron_numbers(self) -> np.ndarray:
        """Expectation value of the electron number on each island."""
        states = self.space.as_array()
        return states.T @ self.probabilities

    def dominant_state(self) -> Tuple[Tuple[int, ...], float]:
        """The most probable configuration and its probability."""
        position = int(np.argmax(self.probabilities))
        return self.space.states[position], float(self.probabilities[position])

    def current(self, junction_name: str) -> float:
        """Conventional current through a junction (``node_a`` -> ``node_b``), ampere."""
        try:
            return self.junction_currents[junction_name]
        except KeyError:
            raise SolverError(
                f"unknown junction {junction_name!r}; known junctions: "
                f"{sorted(self.junction_currents)}"
            ) from None


@dataclass
class _WindowSolution:
    """Stationary solutions of the stack points that share one window."""

    table: TransitionTable
    #: Positions of the points in the solved stack.
    points: np.ndarray
    #: ``(points, P)`` rates and free-energy changes.
    rates: np.ndarray
    delta: np.ndarray
    #: ``(points, S)`` stationary probabilities.
    probabilities: np.ndarray

    def take(self, keep: np.ndarray) -> "_WindowSolution":
        """The solutions of the points selected by the mask ``keep``."""
        return _WindowSolution(self.table, self.points[keep], self.rates[keep],
                               self.delta[keep], self.probabilities[keep])


class MasterEquationSolver:
    """Steady-state master-equation solver for a single-electron circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    temperature:
        Temperature in kelvin.
    extra_electrons:
        Half-width of the automatic charge-state window.
    state_space:
        Optional explicit window overriding the automatic one.
    method:
        ``"auto"`` (default), ``"dense"`` or ``"sparse"``; see the module
        docstring.
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 extra_electrons: int = 3,
                 state_space: Optional[StateSpace] = None,
                 method: str = "auto") -> None:
        validate_solver_method(method)
        self.circuit = circuit
        self.temperature = float(temperature)
        self.method = method
        self.builder = RateMatrixBuilder(circuit, temperature,
                                         state_space=state_space,
                                         extra_electrons=extra_electrons)

    # --------------------------------------------------------- single points

    def solve(self, voltages: Optional[np.ndarray] = None,
              offsets: Optional[np.ndarray] = None) -> SteadyStateSolution:
        """Solve for the stationary distribution at the current operating point."""
        if voltages is None:
            voltages = self.builder.model.system.cached_source_voltages()
        (window,) = self._solve_stack(
            np.asarray(voltages, dtype=float)[np.newaxis], offsets)
        table = window.table
        rates, delta = window.rates[0], window.delta[0]
        probabilities = window.probabilities[0]
        return SteadyStateSolution(
            circuit_name=self.circuit.name,
            temperature=self.temperature,
            space=table.space,
            probabilities=probabilities,
            junction_currents=table.junction_currents(probabilities, rates),
            transition_source=functools.partial(table.transitions_list,
                                                rates, delta),
        )

    def current(self, junction_name: str,
                voltages: Optional[np.ndarray] = None,
                offsets: Optional[np.ndarray] = None) -> float:
        """Convenience: stationary current through one junction, in ampere."""
        return self.solve(voltages=voltages, offsets=offsets).current(junction_name)

    def _solve_stack(self, voltages: np.ndarray,
                     offsets: Optional[np.ndarray] = None, *,
                     start_at_centre: bool = False) -> List[_WindowSolution]:
        """Stationary solutions of a ``(points, sources)`` voltage stack.

        The one routine behind :meth:`solve` (one point) and every sweep.
        One greedy walk over the stack places each point's automatic window
        and gives its start state.  Points that share a window share one
        :class:`~repro.master.transitions.TransitionTable`, one rate call
        and one :func:`_stationary_stack` call.  :meth:`solve` starts where
        the walk stops under
        :meth:`~repro.core.energy.EnergyModel.ground_state`'s default limit;
        on an automatic window the sweeps (``start_at_centre``) start from
        the window centre.  The two states differ only when the walk runs
        past five electrons or exhausts its step budget, and the start
        matters only on a reducible chain.

        An automatic window whose boundary states hold more than
        :data:`~repro.master.statespace.BOUNDARY_MASS_TOLERANCE` of the
        probability grows by ``2`` electrons per island and its points are
        solved again, until the mass is below the tolerance or a wider box
        would exceed :data:`~repro.master.statespace.MAX_STATES`; then one
        ``master.window_truncated`` degradation event reports the mass.
        An explicit window is solved as given.
        """
        builder = self.builder
        model = builder.model
        if offsets is None:
            offsets = model.system.cached_offset_charges()
        else:
            offsets = np.asarray(offsets, dtype=float)
        if builder._explicit_space is not None:
            (starts,) = model.ground_states((5,), voltages, offsets)
            return [self._solve_window(builder.transition_table(),
                                       np.arange(len(voltages)), starts,
                                       voltages, offsets)]
        centres, starts = walk_windows(model, builder.extra_electrons,
                                       voltages, offsets)
        if start_at_centre:
            starts = centres
        half = builder.extra_electrons
        pending = np.arange(len(voltages))
        solved: List[_WindowSolution] = []
        while pending.size:
            wider: List[np.ndarray] = []
            for points in _groups(centres, pending):
                table = builder.window_table(window_bounds(centres[points[0]],
                                                           half))
                if points.size == len(voltages):    # one window, every point
                    window = self._solve_window(table, points, starts,
                                                voltages, offsets)
                else:
                    window = self._solve_window(table, points,
                                                starts[points],
                                                voltages[points], offsets)
                mass = window.probabilities @ table.boundary
                leaking = mass > BOUNDARY_MASS_TOLERANCE
                if np.count_nonzero(leaking) and widened_half(
                        half, model.island_count, mass,
                        table.space.size) is not None:
                    wider.append(points[leaking])
                    window = window.take(~leaking)
                if window.points.size:
                    solved.append(window)
            pending = np.concatenate(wider) if wider else pending[:0]
            half += _WIDEN_STEP
        return solved

    def _solve_window(self, table: TransitionTable, points: np.ndarray,
                      starts: np.ndarray, voltages: np.ndarray,
                      offsets: np.ndarray) -> _WindowSolution:
        """Rates and stationary probabilities of stack points on one window."""
        rates, delta = table.rates(voltages, offsets)
        index = table.space.index
        initial = [index.get(tuple(start), 0) for start in starts.tolist()]
        probabilities = _stationary_stack(table, rates, initial, self.method)
        return _WindowSolution(table, points, rates, delta, probabilities)

    def _resolve_method(self, state_count: int) -> str:
        return resolve_solver_method(self.method, state_count)

    # ---------------------------------------------------------------- sweeps

    def sweep_source(self, source: str, values: Sequence[float],
                     junction_name: str,
                     workers: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Sweep a voltage source and record one junction current.

        The whole sweep is one stacked solve (see :meth:`_solve_stack`):
        one ground-state walk over every point, then per window one rate
        call over the window's points and batched stationary solves.  Each
        current equals a :meth:`solve` of its point started from the window
        centre, bit for bit.  The circuit's bias is left as it was.

        Parameters
        ----------
        source:
            Name of the voltage-source element (or source node) to sweep.
        values:
            Voltages to apply, in volt.
        junction_name:
            Junction whose current is recorded.  Validated up front, so a typo
            fails before the first solve rather than after it.
        workers:
            Number of worker processes.  ``1`` (default) runs in-process;
            larger values split the sweep points into
            ``min(workers, len(values))`` contiguous chunks, whatever the
            host's CPU count, each solved on an independent circuit copy in
            a process pool.  A worker error or a broken pool propagates.

        Returns
        -------
        (values, currents):
            Arrays of applied voltages and stationary currents.
        """
        self._check_junction(junction_name)
        values_array = np.asarray(values, dtype=float)
        if workers > 1 and values_array.size > 1:
            parts = self._fan_out(_sweep_source_chunk, values_array, workers,
                                  source, junction_name)
            return values_array, np.concatenate(parts)
        currents = self._sweep_currents(((source, values_array),),
                                        junction_name)
        return values_array, currents

    def sweep_gate_drain(self, gate_source: str, drain_source: str,
                         gate_values: Sequence[float],
                         drain_values: Sequence[float],
                         junction_name: str,
                         workers: int = 1
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched (gate, drain) map of one junction current.

        The workhorse behind master-equation stability diagrams: the whole
        grid is one stacked solve, as in :meth:`sweep_source`, so each
        window visited costs one rate call and batched stationary solves.

        Parameters
        ----------
        gate_source, drain_source:
            Voltage sources (element or node names) spanning the map axes.
        gate_values, drain_values:
            The grid axes, in volt.
        junction_name:
            Junction whose current is recorded (validated up front).
        workers:
            Optional process pool; the drain rows are split like the points
            of :meth:`sweep_source`.

        Returns
        -------
        (gate_values, drain_values, currents):
            ``currents[row, column]`` is the current at
            ``(drain_values[row], gate_values[column])``.
        """
        self._check_junction(junction_name)
        gate_array = np.asarray(gate_values, dtype=float)
        drain_array = np.asarray(drain_values, dtype=float)
        if workers > 1 and drain_array.size > 1:
            rows = self._fan_out(_sweep_gate_drain_chunk, drain_array,
                                 workers, gate_source, drain_source,
                                 gate_array, junction_name)
            return gate_array, drain_array, np.vstack(rows)
        currents = self._sweep_currents(
            ((drain_source, np.repeat(drain_array, gate_array.size)),
             (gate_source, np.tile(gate_array, drain_array.size))),
            junction_name)
        return gate_array, drain_array, currents.reshape(drain_array.size,
                                                         gate_array.size)

    # ------------------------------------------------------------- internals

    def _sweep_currents(self, swept: Sequence[Tuple[str, np.ndarray]],
                        junction_name: str) -> np.ndarray:
        """One junction's current at every point of a stacked sweep.

        ``swept`` pairs each swept source with its value at every point; the
        other sources keep the circuit's voltages.  Each source is resolved
        and checked as :meth:`Circuit.set_source_voltage` would; the circuit
        itself is left untouched.
        """
        count = swept[0][1].size
        currents = np.empty(count)
        if not count:
            return currents
        system = self.builder.model.system
        voltages = np.tile(system.cached_source_voltages(), (count, 1))
        for source, values in swept:
            largest = float(np.abs(values).max())
            node = self.circuit.source_node(source, largest)
            voltages[:, system.source_index[node]] = values
        for window in self._solve_stack(voltages, start_at_centre=True):
            table = window.table
            currents[window.points] = table.junction_current_series(
                window.probabilities, window.rates)[
                    :, table.junction_names.index(junction_name)]
        return currents

    def _check_junction(self, junction_name: str) -> None:
        known = [junction.name for junction in self.circuit.junctions()]
        if junction_name not in known:
            raise SolverError(
                f"unknown junction {junction_name!r}; known junctions: "
                f"{sorted(known)}"
            )

    def _fan_out(self, worker, points: np.ndarray, workers: int,
                 *sweep_args) -> list:
        """Run ``worker`` on ``workers`` shares of ``points`` in a pool.

        Each share gets its own process and solver copy; the contract is
        :func:`~repro.resilience.chunks.fan_out`'s.
        """
        from ..resilience.chunks import fan_out, split_points

        solver_args = (self.circuit.copy(), self.temperature,
                       self.builder.extra_electrons,
                       self.builder._explicit_space, self.method)
        return fan_out(functools.partial(worker, solver_args, sweep_args),
                       split_points(points, workers))


def _chunk_solver(solver_args) -> MasterEquationSolver:
    circuit, temperature, extra_electrons, state_space, method = solver_args
    return MasterEquationSolver(circuit, temperature,
                                extra_electrons=extra_electrons,
                                state_space=state_space, method=method)


def _sweep_source_chunk(solver_args, sweep_args, chunk) -> np.ndarray:
    """Worker body of a fanned-out :meth:`MasterEquationSolver.sweep_source`."""
    source, junction_name = sweep_args
    return _chunk_solver(solver_args).sweep_source(
        source, chunk.points, junction_name)[1]


def _sweep_gate_drain_chunk(solver_args, sweep_args, chunk) -> np.ndarray:
    """Worker body of a fanned-out :meth:`MasterEquationSolver.sweep_gate_drain`."""
    gate_source, drain_source, gate_values, junction_name = sweep_args
    return _chunk_solver(solver_args).sweep_gate_drain(
        gate_source, drain_source, gate_values, chunk.points,
        junction_name)[2]


def _groups(keys: np.ndarray, points: np.ndarray) -> List[np.ndarray]:
    """``points`` split by their rows of ``keys``, each part ascending."""
    if points.size <= 1:
        return [points] if points.size else []
    rows = keys[points]
    order = np.lexsort(rows.T[::-1])        # stable, first column first
    rows = rows[order]
    breaks = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1
    return np.split(points[order], breaks)


# ======================================================================
# Stacked stationary solve.
# ======================================================================


def _stationary_stack(table: TransitionTable, rates: np.ndarray,
                      initial: Sequence[int], method: str) -> np.ndarray:
    """Stationary probabilities of a ``(points, P)`` rate stack on one window.

    Row ``p`` equals the one-point solve of ``rates[p]`` started from state
    ``initial[p]`` bit for bit.  A window that ``method`` sends to the
    sparse backend is solved point by point through
    :func:`_solve_stationary_sparse` (its fallback ladder and fault sites
    included); a dense window is solved in stacks of at most
    :data:`_STACK_ELEMENTS` generator entries by :func:`_solve_dense_stack`.
    """
    count, size = rates.shape[0], table.space.size
    if resolve_solver_method(method, size) == "sparse":
        return np.array([
            _solve_stationary_sparse(table.sparse_generator(row), start)
            for row, start in zip(rates, initial)]).reshape(count, size)
    step = max(1, _STACK_ELEMENTS // max(1, size * size))
    if count <= step:
        return _solve_dense_stack(table, rates, initial)
    probabilities = np.empty((count, size))
    for first in range(0, count, step):
        chunk = slice(first, first + step)
        probabilities[chunk] = _solve_dense_stack(table, rates[chunk],
                                                  initial[chunk])
    return probabilities


def _solve_dense_stack(table: TransitionTable, rates: np.ndarray,
                       initial: Sequence[int]) -> np.ndarray:
    """:func:`_solve_stationary` over a stack of dense generators.

    One reachability analysis (:func:`_stack_plan`) covers the stack.  Each
    group of the plan is one ``np.linalg.solve`` over ``(G, r, r)`` matrices
    (LAPACK solves each matrix as it would alone); a reducible point runs
    :func:`_solve_stationary` by itself.
    """
    matrices = table.dense_generators(rates)
    count, size = matrices.shape[:2]
    if size <= 1:
        return np.array([_solve_stationary(matrix, start)
                         for matrix, start in zip(matrices, initial)]
                        ).reshape(count, size)
    reducible, groups = _stack_plan(table, rates, matrices, initial)
    if not reducible.size and len(groups) == 1 \
            and groups[0][1].size == size:
        return _irreducible_stack(matrices)
    probabilities = np.zeros((count, size))
    for point in reducible:
        probabilities[point] = _solve_stationary(matrices[point],
                                                 initial[point])
    for points, states in groups:
        probabilities[points[:, np.newaxis], states] = _irreducible_stack(
            matrices.take(points, 0).take(states, 1).take(states, 2))
    return probabilities


def _stack_plan(table: TransitionTable, rates: np.ndarray,
                matrices: np.ndarray, initial: Sequence[int]
                ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """:func:`_solve_plan` of a stack; one-point plans are remembered.

    A plan depends only on which pair rates are positive and where each
    point starts.  A loop of one-point solves across a gate range
    revisits few such patterns (96% of the one-point solves of a
    per-point master stream reused a plan), and a reused plan saves the
    two breadth-first searches: ~24% of a one-point ``solve`` on the
    reference SET.  A stack's pattern
    recurs only when a whole sweep is repeated, so stacks are not
    remembered.  Each window keeps at most :data:`_PLANS_PER_WINDOW` plans.
    """
    if len(initial) != 1:
        return _solve_plan(matrices, initial)
    plans = _ONE_POINT_PLANS.setdefault(table, {})
    key = ((rates > 0.0).tobytes(), initial[0])
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _PLANS_PER_WINDOW:
            plans.clear()
        plan = plans[key] = _solve_plan(matrices, initial)
    return plan


def _solve_plan(matrices: np.ndarray, initial: Sequence[int]
                ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """The reducible points of a generator stack, and the others' classes.

    Reachability in both directions is one breadth-first search over the
    stack (:func:`_reach_stack`).  A point is reducible when it reaches a
    state that cannot reach back; the other points are grouped by their
    reachable set, which is one closed class.  Returns ``(reducible_points, [(points, states), ...])``.
    """
    size = matrices.shape[1]
    adjacency = matrices > 0.0
    diagonal = np.arange(size)
    adjacency[:, diagonal, diagonal] = False
    forward, backward = _reach_stack(adjacency, initial)
    reducible = (forward > backward).any(axis=1)
    closed = np.flatnonzero(~reducible)
    patterns = forward.take(closed, axis=0)
    return np.flatnonzero(reducible), [
        (closed.take(group), np.flatnonzero(patterns[group[0]]))
        for group in _groups(patterns, np.arange(closed.size))]


def _reach_stack(adjacency: np.ndarray,
                 initial: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """States each start reaches, and states that reach it, over a stack.

    ``adjacency[p, j, i]`` is True when point ``p`` has a direct transition
    i -> j.  Breadth first: each pass reads only the columns (forward) and
    rows (backward) of the states some point reached in the pass before.
    A stack of one runs :func:`_reach` in each direction, which takes fewer
    array operations per pass.
    """
    count, size = adjacency.shape[:2]
    if count == 1:
        return (_reach(adjacency[0], initial[0])[np.newaxis],
                _reach(adjacency[0].T, initial[0])[np.newaxis])
    forward = np.zeros((count, size), dtype=bool)
    forward[np.arange(count), initial] = True
    backward = forward.copy()
    new_forward, new_backward = forward, backward
    while True:
        columns = np.flatnonzero(new_forward.any(axis=0))
        rows = np.flatnonzero(new_backward.any(axis=0))
        if not columns.size and not rows.size:
            return forward, backward
        new_forward = (adjacency[:, :, columns]
                       & new_forward[:, np.newaxis, columns]).any(axis=2)
        new_forward &= ~forward
        new_backward = (adjacency[:, rows, :]
                        & new_backward[:, rows, np.newaxis]).any(axis=1)
        new_backward &= ~backward
        forward = forward | new_forward
        backward = backward | new_backward


def _irreducible_stack(blocks: np.ndarray) -> np.ndarray:
    """:func:`_irreducible_stationary` of each block of a ``(G, r, r)`` stack.

    One batched ``np.linalg.solve``; if LAPACK finds a singular block, every
    block of the stack falls back to :func:`_irreducible_stationary` (and its
    SVD rung) on its own.
    """
    count, size = blocks.shape[:2]
    if size == 1:
        return np.ones((count, 1))
    augmented = blocks.copy()
    augmented[:, -1, :] = 1.0
    rhs = np.zeros((count, size, 1))
    rhs[:, -1] = 1.0
    try:
        solved = np.linalg.solve(augmented, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return np.array([_irreducible_stationary(block) for block in blocks])
    if np.count_nonzero(np.isfinite(solved)) != solved.size:
        raise SolverError("stationary solve produced non-finite probabilities")
    np.maximum(solved, 0.0, out=solved)
    total = solved.sum(axis=1, keepdims=True)
    if np.count_nonzero(total <= 0.0):
        raise SolverError("stationary distribution sums to zero")
    return solved / total


# ======================================================================
# Dense backend (the correctness baseline).
# ======================================================================


def _solve_stationary(matrix: np.ndarray, initial_index: int = 0) -> np.ndarray:
    """Stationary distribution of a (possibly reducible) generator matrix.

    At low temperatures many uphill rates underflow to zero, so the Markov
    chain on the enumerated window is *reducible*: some states are transient
    and there may be one or several closed (recurrent) classes.  The physical
    stationary state is then determined by where the dynamics starting from
    the ground state ends up.  The solver therefore

    1. restricts the chain to states forward-reachable from ``initial_index``,
    2. identifies the closed communicating classes among them,
    3. solves the balance equations inside each closed class, and
    4. weights the classes by the probability of being absorbed into them when
       starting from ``initial_index``.

    When every forward-reachable state can reach ``initial_index`` back, the
    reachable set is one closed class and steps 2 and 4 are skipped: this is
    the textbook ``M p = 0`` with normalisation on that set, and the common
    case by far.
    """
    size = matrix.shape[0]
    if size == 0:
        raise SolverError("empty state space")
    if size == 1:
        return np.array([1.0])
    if not 0 <= initial_index < size:
        raise SolverError(f"initial state index {initial_index} out of range")

    adjacency = matrix > 0.0
    np.fill_diagonal(adjacency, False)
    forward = _reach(adjacency, initial_index)
    backward = _reach(adjacency.T, initial_index)
    if backward[forward].all():
        if forward.all():
            return _irreducible_stationary(matrix)
        reachable = np.flatnonzero(forward)
        probabilities = np.zeros(size)
        probabilities[reachable] = _irreducible_stationary(
            matrix[np.ix_(reachable, reachable)])
        return probabilities

    reachable_list = np.flatnonzero(forward)
    sub_graph = sparse.csr_matrix(adjacency[np.ix_(reachable_list,
                                                   reachable_list)].T)
    classes = _closed_classes(sub_graph)
    # Order the classes as a depth-first search over the states in index
    # order first reaches them: the absorption weights are summed in this
    # order, so it fixes their last bits.
    rank = _discovery_rank(sub_graph)
    classes.sort(key=lambda members: rank[members].min())
    initial_local = int(np.searchsorted(reachable_list, initial_index))
    weights = _absorption_weights(matrix, reachable_list, classes,
                                  initial_local)
    probabilities = np.zeros(size)
    for class_states, weight in zip(classes, weights):
        if weight <= 0.0:
            continue
        global_states = reachable_list[class_states]
        block = matrix[np.ix_(global_states, global_states)]
        # Within a closed class the generator restricted to the class is a
        # proper generator (no leakage), so the plain stationary solve applies.
        probabilities[global_states] += weight * _irreducible_stationary(block)
    total = probabilities.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return probabilities / total


def _reach(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Mask of the states reachable from ``start`` along ``adjacency``.

    ``adjacency[j, i]`` is True when a direct transition i -> j exists; pass
    the transpose for the states that can reach ``start``.  Breadth first:
    each level reads only the frontier's columns, so a whole search reads
    each column at most once.
    """
    size = adjacency.shape[0]
    reached = np.zeros(size, dtype=bool)
    reached[start] = True
    frontier = np.array([start])
    count = 1
    while count < size:
        hits = adjacency[:, frontier].any(axis=1)
        hits[reached] = False
        frontier = np.flatnonzero(hits)
        if not frontier.size:
            break
        reached[frontier] = True
        count += frontier.size
    return reached


def _closed_classes(graph: sparse.csr_matrix) -> List[np.ndarray]:
    """Closed communicating classes of the chain with edges ``graph[i, j]``.

    Each class is an ascending index array; the classes come in the order
    of their strongly connected component labels.
    """
    component_count, labels = csgraph.connected_components(
        graph, directed=True, connection="strong")
    # A strongly connected component is a *closed* class iff the condensation
    # has no edge leaving it.
    coo = graph.tocoo()
    leaving = labels[coo.row] != labels[coo.col]
    open_component = np.zeros(component_count, dtype=bool)
    open_component[labels[coo.row[leaving]]] = True
    classes = [np.nonzero(labels == component)[0]
               for component in np.nonzero(~open_component)[0]]
    if not classes:
        raise SolverError("no closed communicating class found")
    return classes


def _discovery_rank(graph: sparse.csr_matrix) -> np.ndarray:
    """Preorder rank of each state in a depth-first forest over ``graph``.

    The forest starts a tree at each not yet visited state in index order
    and follows successors in index order.  A new tree rooted at ``root``
    visits its new states in the order of a fresh search from ``root``:
    everything an earlier tree visited is closed under successors, so
    re-entering it discovers nothing.
    """
    size = graph.shape[0]
    graph.sort_indices()
    rank = np.full(size, -1, dtype=np.int64)
    seen = 0
    for root in range(size):
        if rank[root] >= 0:
            continue
        order = csgraph.depth_first_order(graph, root, directed=True,
                                          return_predecessors=False)
        fresh = order[rank[order] < 0]
        rank[fresh] = np.arange(seen, seen + fresh.size)
        seen += fresh.size
    return rank


def _absorption_weights(matrix: np.ndarray, reachable_list: np.ndarray,
                        classes: List[np.ndarray],
                        initial_local: int) -> List[float]:
    """Probability of ending up in each closed class when starting from one state."""
    class_of: Dict[int, int] = {}
    for class_index, members in enumerate(classes):
        for member in members:
            class_of[member] = class_index

    transient = [position for position in range(len(reachable_list))
                 if position not in class_of]
    if initial_local in class_of:
        weights = [0.0] * len(classes)
        weights[class_of[initial_local]] = 1.0
        return weights

    # Solve the absorption problem on the transient states: for each closed
    # class c, B[t, c] = probability of absorption into c starting from t.
    transient_global = [reachable_list[position] for position in transient]
    transient_index = {position: row for row, position in enumerate(transient)}
    generator_tt = matrix[np.ix_(transient_global, transient_global)]
    absorption = np.zeros((len(transient), len(classes)))
    for class_index, members in enumerate(classes):
        member_global = [reachable_list[position] for position in members]
        rates_to_class = matrix[np.ix_(member_global, transient_global)].sum(axis=0)
        absorption[:, class_index] = rates_to_class
    try:
        weights_matrix = np.linalg.solve(-generator_tt.T, absorption)
    except np.linalg.LinAlgError as exc:
        raise SolverError("absorption problem is singular") from exc
    row = weights_matrix[transient_index[initial_local]]
    row = np.clip(row, 0.0, None)
    total = row.sum()
    if total <= 0.0:
        raise SolverError("absorption probabilities sum to zero")
    return list(row / total)


def _irreducible_stationary(block: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible generator block (columns sum to ~0)."""
    size = block.shape[0]
    if size == 1:
        return np.array([1.0])
    augmented = block.copy()
    augmented[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        probabilities = np.linalg.solve(augmented, rhs)
    except np.linalg.LinAlgError:
        _, _, vh = np.linalg.svd(block)
        probabilities = vh[-1]
        if probabilities.sum() < 0:
            probabilities = -probabilities
    if not np.isfinite(probabilities).all():
        raise SolverError("stationary solve produced non-finite probabilities")
    probabilities = np.maximum(probabilities, 0.0)
    total = probabilities.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return probabilities / total


# ======================================================================
# Sparse backend: the same reachable-set / closed-class / absorption
# algorithm, expressed through scipy.sparse + csgraph.
# ======================================================================


def _solve_stationary_sparse(matrix: sparse.csr_matrix,
                             initial_index: int = 0) -> np.ndarray:
    """Sparse counterpart of :func:`_solve_stationary` (same algorithm).

    ``matrix`` is the CSR generator with ``matrix[j, i]`` the rate i -> j and
    columns summing to zero.  Agreement with the dense path is limited only by
    the linear solvers (well below 1e-10 on the probability vector).
    """
    size = matrix.shape[0]
    if size == 0:
        raise SolverError("empty state space")
    if size == 1:
        return np.array([1.0])
    if not 0 <= initial_index < size:
        raise SolverError(f"initial state index {initial_index} out of range")

    graph = _edge_graph(matrix)
    reachable_list = np.sort(csgraph.breadth_first_order(
        graph, initial_index, directed=True, return_predecessors=False))
    classes = _closed_classes(graph[reachable_list][:, reachable_list])

    probabilities = np.zeros(size)
    if len(classes) == 1 and classes[0].size == reachable_list.size:
        block = matrix[reachable_list][:, reachable_list]
        probabilities[reachable_list] = _irreducible_stationary_sparse(block)
        return probabilities

    initial_local = int(np.searchsorted(reachable_list, initial_index))
    weights = _absorption_weights_sparse(matrix, reachable_list, classes,
                                         initial_local)
    for class_members, weight in zip(classes, weights):
        if weight <= 0.0:
            continue
        global_states = reachable_list[class_members]
        block = matrix[global_states][:, global_states]
        probabilities[global_states] += \
            weight * _irreducible_stationary_sparse(block)
    total = probabilities.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return probabilities / total


def _edge_graph(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Adjacency ``A[i, j] = 1`` iff a direct transition i -> j exists."""
    coo = matrix.tocoo()
    off_diagonal = (coo.row != coo.col) & (coo.data > 0.0)
    return sparse.csr_matrix(
        (np.ones(int(off_diagonal.sum())),
         (coo.col[off_diagonal], coo.row[off_diagonal])),
        shape=matrix.shape)


def _absorption_weights_sparse(matrix: sparse.csr_matrix,
                               reachable_list: np.ndarray,
                               classes: List[np.ndarray],
                               initial_local: int) -> List[float]:
    """Sparse counterpart of :func:`_absorption_weights`."""
    count = reachable_list.size
    member_class = np.full(count, -1, dtype=np.int64)
    for class_index, members in enumerate(classes):
        member_class[members] = class_index
    if member_class[initial_local] >= 0:
        weights = [0.0] * len(classes)
        weights[member_class[initial_local]] = 1.0
        return weights

    transient = np.nonzero(member_class < 0)[0]
    transient_global = reachable_list[transient]
    generator_tt = matrix[transient_global][:, transient_global]
    absorption = np.empty((transient.size, len(classes)))
    for class_index, members in enumerate(classes):
        member_global = reachable_list[members]
        into_class = matrix[member_global][:, transient_global].sum(axis=0)
        absorption[:, class_index] = np.asarray(into_class).ravel()
    try:
        factor = splu((-generator_tt.T).tocsc())
        weights_matrix = factor.solve(absorption)
        if not np.all(np.isfinite(weights_matrix)):
            raise ValueError("sparse absorption solve produced non-finite weights")
    except (RuntimeError, ValueError):
        if transient.size > _DENSE_FALLBACK_LIMIT:
            raise SolverError(
                f"sparse absorption solve failed on {transient.size} "
                "transient states and the block is too large to densify; "
                "narrow the window or raise the temperature") from None
        try:
            weights_matrix = np.linalg.solve(-generator_tt.toarray().T,
                                             absorption)
        except np.linalg.LinAlgError as exc:
            raise SolverError("absorption problem is singular") from exc
    row = weights_matrix[int(np.searchsorted(transient, initial_local))]
    row = np.clip(row, 0.0, None)
    total = row.sum()
    if total <= 0.0:
        raise SolverError("absorption probabilities sum to zero")
    return list(row / total)


def _irreducible_stationary_sparse(block: sparse.spmatrix) -> np.ndarray:
    """Stationary vector of an irreducible sparse generator block.

    The fallback ladder, each rung emitting a structured degradation event
    when it gives way to the next:

    1. direct sparse LU (``splu``) — the fast path;
    2. GMRES with a diagonal preconditioner (:func:`_gmres_stationary`,
       which raises :class:`~repro.errors.ConvergenceError` instead of
       passing an unconverged vector downstream);
    3. a dense direct solve, for blocks up to :data:`_DENSE_FALLBACK_LIMIT`
       states (densifying larger blocks would defeat the sparse path);
    4. power iteration on the uniformised chain, which cannot fail on a
       proper generator, only converge slowly.
    """
    size = block.shape[0]
    if size == 1:
        return np.array([1.0])
    coo = block.tocoo()
    keep = coo.row != size - 1
    rows = np.concatenate([coo.row[keep],
                           np.full(size, size - 1, dtype=np.int64)])
    cols = np.concatenate([coo.col[keep], np.arange(size, dtype=np.int64)])
    data = np.concatenate([coo.data[keep], np.ones(size)])
    augmented = sparse.csc_matrix((data, (rows, cols)), shape=(size, size))
    rhs = np.zeros(size)
    rhs[-1] = 1.0

    probabilities: Optional[np.ndarray] = None
    try:
        inject("steadystate.splu")
        factor = splu(augmented)
        candidate = factor.solve(rhs)
        if not np.all(np.isfinite(candidate)):
            raise SolverError("sparse LU produced non-finite probabilities")
        probabilities = candidate
    except (RuntimeError, ValueError, SolverError) as error:
        emit_degradation("steadystate.splu", "fallback:gmres", repr(error))
    if probabilities is None:
        try:
            inject("steadystate.gmres")
            probabilities = _gmres_stationary(augmented, rhs)
        except (RuntimeError, ValueError, SolverError) as error:
            action = "fallback:dense" if size <= _DENSE_FALLBACK_LIMIT \
                else "fallback:power-iteration"
            emit_degradation("steadystate.gmres", action, repr(error))
    if probabilities is None and size <= _DENSE_FALLBACK_LIMIT:
        try:
            inject("steadystate.dense")
            candidate = np.linalg.solve(augmented.toarray(), rhs)
            if not np.all(np.isfinite(candidate)):
                raise SolverError(
                    "dense stationary solve produced non-finite "
                    "probabilities")
            probabilities = candidate
        except (np.linalg.LinAlgError, RuntimeError, ValueError,
                SolverError) as error:
            emit_degradation("steadystate.dense", "fallback:power-iteration",
                             repr(error))
    if probabilities is None:
        probabilities = _power_iteration_stationary(block)
    if np.any(~np.isfinite(probabilities)):
        raise SolverError("stationary solve produced non-finite probabilities")
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return probabilities / total


def _gmres_stationary(augmented: sparse.csc_matrix,
                      rhs: np.ndarray) -> np.ndarray:
    """GMRES rung of the stationary ladder (diagonal preconditioner).

    Raises :class:`~repro.errors.ConvergenceError` carrying the iteration
    count when GMRES reports a nonzero ``info`` — an unconverged vector must
    trigger the next rung, never flow downstream as if it were a solution.
    """
    diagonal = augmented.diagonal()
    safe = np.where(diagonal != 0.0, diagonal, 1.0)
    preconditioner = LinearOperator(augmented.shape,
                                    matvec=lambda vector: vector / safe)
    try:
        solution, info = gmres(augmented, rhs, M=preconditioner,
                               rtol=1e-12, atol=0.0, maxiter=1000,
                               restart=min(augmented.shape[0], 200))
    except TypeError:   # scipy < 1.12 spells the tolerance "tol"
        solution, info = gmres(augmented, rhs, M=preconditioner,
                               tol=1e-12, atol=0.0, maxiter=1000,
                               restart=min(augmented.shape[0], 200))
    if info != 0:
        raise ConvergenceError(
            f"GMRES stationary solve did not converge (info={int(info)})",
            iterations=int(info) if info > 0 else None)
    if not np.all(np.isfinite(solution)):
        raise SolverError("GMRES produced non-finite probabilities")
    return solution


def _power_iteration_stationary(block: sparse.spmatrix,
                                max_iterations: int = 20_000,
                                tolerance: float = 1e-15) -> np.ndarray:
    """Stationary vector via power iteration on the uniformised chain.

    ``P = I + M / lam`` with ``lam`` just above the largest exit rate is a
    proper stochastic matrix whose fixed point is the stationary vector.
    """
    size = block.shape[0]
    exit_rates = -block.diagonal()
    scale = float(exit_rates.max())
    if scale <= 0.0:            # no dynamics at all: every state is absorbing
        return np.full(size, 1.0 / size)
    scale *= 1.0 + 1e-9
    probabilities = np.full(size, 1.0 / size)
    for _ in range(max_iterations):
        updated = probabilities + (block @ probabilities) / scale
        updated = np.clip(updated, 0.0, None)
        total = updated.sum()
        if total <= 0.0:
            raise SolverError("power iteration collapsed to zero")
        updated /= total
        if np.max(np.abs(updated - probabilities)) < tolerance:
            return updated
        probabilities = updated
    raise SolverError(
        f"stationary solve did not converge: every direct/iterative ladder "
        f"rung failed and power iteration did not reach tolerance "
        f"{tolerance:g} within {max_iterations} iterations")


__all__ = ["MasterEquationSolver", "SteadyStateSolution", "DENSE_STATE_CUTOFF"]
