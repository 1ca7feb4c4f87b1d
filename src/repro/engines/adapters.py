"""The four built-in engines expressed as :class:`~repro.engines.base.Engine` adapters.

Each adapter wraps one existing backend without re-implementing any physics:

* ``analytic`` — :class:`repro.compact.set_model.AnalyticSETModel`, whole
  sweeps in one broadcast ``drain_current_map`` call;
* ``master`` — the closed-form birth-death chain of
  :meth:`repro.compact.set_model.AnalyticSETModel.chain_current` on an
  automatic charge-state window (:func:`chain_currents`), for sessions and
  device batches alike; reducible points fall back to
  :class:`repro.master.steadystate.MasterEquationSolver`;
* ``montecarlo`` — :class:`repro.montecarlo.simulator.MonteCarloSimulator`,
  warm-started sweeps carrying event tables and trajectory state across
  bias points, on the advance loop of :mod:`repro.montecarlo.jit` (numba,
  a C/ctypes build or the interpreted loop — every backend replays the
  same events);
* ``ensemble`` — the same simulator advancing ``R`` replicas one after
  another through the same loop, with replica-spread error bars.

The two Monte-Carlo engines are one :class:`MonteCarloEngine` class; the
retired names ``montecarlo-jit`` and ``ensemble-jit`` resolve to
``montecarlo`` and ``ensemble``.

The adapters are registered with :mod:`repro.engines.registry` on import;
resolve them with :func:`repro.engines.get_engine` rather than instantiating
these classes directly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..constants import BOLTZMANN, E_CHARGE
from ..devices.set_transistor import (
    DRAIN_JUNCTION,
    DRAIN_SOURCE,
    GATE_SOURCE,
    ISLAND,
    SETTransistor,
)
from ..resilience.faults import inject_value
from ..resilience.policy import FailurePolicy, PointRecord
from .base import (
    EXACTNESS_APPROXIMATE,
    EXACTNESS_EXACT_SEQUENTIAL,
    EXACTNESS_STOCHASTIC_FULL,
    BiasPoint,
    CostModel,
    DeviceTable,
    Engine,
    EngineCapabilities,
    Observables,
    Session,
    SweepAxes,
    SweepResult,
    _bias_grid,
    _require_policy,
)
from .registry import register_engine


def analytic_model_for(device: SETTransistor, temperature: float,
                       background_charge: Optional[float] = None):
    """The compact-model twin of a :class:`SETTransistor`.

    One place owns the parameter mapping (junction/gate capacitances,
    resistances, offset charge, grounded second gate), so the ``analytic``
    engine path and code that builds compact models directly cannot drift
    apart; :func:`analytic_model_for_table` is its batched twin.

    Parameters
    ----------
    device:
        The SET whose parameters to mirror.
    temperature:
        Model temperature in kelvin.
    background_charge:
        Optional override of the device's offset charge, in coulomb.

    Returns
    -------
    repro.compact.set_model.AnalyticSETModel
        The equivalent analytic model.
    """
    from ..compact.set_model import AnalyticSETModel

    return AnalyticSETModel(
        drain_capacitance=device.c_drain,
        source_capacitance=device.c_source,
        gate_capacitance=device.gate_capacitance,
        drain_resistance=device.r_drain,
        source_resistance=device.r_source,
        background_charge=(device.background_charge
                           if background_charge is None
                           else background_charge),
        temperature=float(temperature),
        second_gate_capacitance=device.second_gate_capacitance or 0.0)


def analytic_model_for_table(table: DeviceTable, index=(slice(None), None)):
    """The batched compact-model twin of a :class:`DeviceTable`.

    The per-row parameters of :func:`analytic_model_for`, one device per
    row, so every batched path maps a table the same way.

    Parameters
    ----------
    table:
        The device batch.
    index:
        Index applied to every per-row column; the default makes them
        ``(rows, 1)`` columns that broadcast along the bias axis.

    Returns
    -------
    repro.compact.set_model.AnalyticSETModel
        A batched model (array parameters).
    """
    from ..compact.set_model import AnalyticSETModel

    return AnalyticSETModel(
        drain_capacitance=table.c_drain[index],
        source_capacitance=table.c_source[index],
        gate_capacitance=table.gate_capacitance[index],
        drain_resistance=table.r_drain[index],
        source_resistance=table.r_source[index],
        background_charge=table.offset_charge[index],
        temperature=table.temperature[index],
        second_gate_capacitance=table.c_second_gate[index])


# ======================================================================
# analytic
# ======================================================================


class AnalyticSession(Session):
    """Bound session over a compact SET model (broadcast evaluation).

    Parameters
    ----------
    model:
        The compact model of ``device``: any model exposing
        ``drain_current(vd, vg)`` and the broadcast
        ``drain_current_map(vds, vgs)`` (every SET model in
        :mod:`repro.compact` does).
    device:
        The bound device; per-point offsets rebuild its model.
    temperature:
        Operating temperature in kelvin.
    background_charge:
        Island offset charge baked into ``model``, for bookkeeping.
    """

    def __init__(self, model, device: SETTransistor, temperature: float,
                 background_charge: Optional[float] = None) -> None:
        super().__init__(AnalyticEngine.name, device, temperature,
                         background_charge)
        self.model = model

    def solve(self, bias: BiasPoint) -> Observables:
        """Closed-form drain current at one bias point."""
        model = self._model_at(bias)
        current = float(model.drain_current(bias.drain_voltage,
                                            bias.gate_voltage))
        return Observables(current=current, engine=self.engine_name)

    def _sweep(self, axes: SweepAxes, workers: int) -> SweepResult:
        """The whole gate sweep in one broadcast ``drain_current_map`` call.

        ``workers`` is ignored: the broadcast evaluation is already one
        vectorized call.
        """
        currents = np.asarray(
            self.model.drain_current_map([axes.drain_voltage], axes.gates),
            dtype=float)[0]
        return SweepResult(axes=axes, currents=currents, stderrs=None,
                           engine=self.engine_name)

    def _model_at(self, bias: BiasPoint):
        """The session model, rebuilt only when a per-point offset differs."""
        if bias.offset_charge is None:
            return self.model
        return analytic_model_for(self.device, self.temperature,
                                  background_charge=bias.offset_charge)


class AnalyticEngine(Engine):
    """The SPICE-style closed-form compact model as an engine."""

    name = "analytic"

    def capabilities(self) -> EngineCapabilities:
        """Approximate-sequential, deterministic, broadcast-everything."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_APPROXIMATE,
            stochastic=False,
            supports_ensemble=False,
            cost=CostModel(setup_s=1e-4, per_point_s=1e-5),
            description="closed-form 3-state orthodox model; smooth, "
                        "broadcast sweeps; blind to co-tunnelling and "
                        "interacting SETs")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> AnalyticSession:
        """Bind the compact-model twin of ``device`` (stochastic knobs ignored)."""
        model = analytic_model_for(device, temperature,
                                   background_charge=background_charge)
        return AnalyticSession(model, device, temperature,
                               background_charge=background_charge)

    def solve_devices(self, table: DeviceTable, gates, drains, *,
                      max_events: int = 20_000, warmup_events: int = 1_000,
                      replicas: int = 0) -> np.ndarray:
        """The whole batch in one array-parameter ``drain_current`` call.

        Every row's compact-model twin becomes one element of a batched
        :class:`~repro.compact.set_model.AnalyticSETModel`, so the currents
        follow the model's array path: equal to per-row :meth:`bind` +
        ``solve`` within the few-ulp contract documented on
        :meth:`~repro.compact.set_model.AnalyticSETModel.drain_current`.
        See :meth:`Engine.solve_devices` for the parameters.
        """
        gates, drains = _bias_grid(table, gates, drains)
        if not len(table):
            return np.empty(gates.shape)
        model = analytic_model_for_table(table)
        return np.asarray(model.drain_current(drains, gates), dtype=float)


# ======================================================================
# shared circuit-session machinery
# ======================================================================


class _CircuitSession(Session):
    """Shared base for sessions that drive a bound :class:`Circuit`.

    Owns the one circuit of the session, built on first use, and the bias
    bookkeeping every circuit-backed engine needs: moving to a :class:`BiasPoint` (including
    per-point island offsets) and restoring the bound offset before a
    sweep, so a prior offset-probing ``solve`` can never leak into later
    sweeps.
    """

    def __init__(self, engine_name: str, device: SETTransistor,
                 temperature: float,
                 background_charge: Optional[float] = None) -> None:
        super().__init__(engine_name, device, temperature, background_charge)
        self._bound_offset = device.background_charge \
            if background_charge is None else float(background_charge)

    @functools.cached_property
    def _circuit(self):
        """The bound circuit, built on first use."""
        return self.device.build_circuit(background_charge=self._bound_offset)

    def _apply_bias(self, bias: BiasPoint) -> None:
        """Move the bound circuit to ``bias`` (gate, drain, island offset)."""
        self._circuit.set_source_voltage(GATE_SOURCE, bias.gate_voltage)
        self._circuit.set_source_voltage(DRAIN_SOURCE, bias.drain_voltage)
        offset = self._bound_offset if bias.offset_charge is None \
            else float(bias.offset_charge)
        self._circuit.set_offset_charge(ISLAND, offset)

    def _begin_sweep(self, drain_voltage: float) -> None:
        """Set the sweep's drain bias and restore the bound island offset."""
        self._circuit.set_source_voltage(DRAIN_SOURCE, drain_voltage)
        self._circuit.set_offset_charge(ISLAND, self._bound_offset)


# ======================================================================
# master
# ======================================================================


def _chain_half_width(model):
    """Half-width of the first chain window at each parameter point of ``model``.

    The charge distribution falls off about as ``exp(-(n - n_x)^2 E_C /
    kT)``, so ``K >= 1 + sqrt(ln(1/tolerance) kT / E_C)`` states on each
    side of the window centre leave less than
    :data:`~repro.master.statespace.BOUNDARY_MASS_TOLERANCE` on its
    boundary; bias can spread the charge further, which the boundary check
    of :func:`chain_currents` catches.  Never below ``3``.

    Returns
    -------
    int or numpy.ndarray
        The half-width of a model with scalar parameters, else integer
        half-widths of the broadcast shape of its temperature and
        capacitances.
    """
    from ..master.statespace import BOUNDARY_MASS_TOLERANCE

    # The model's validation keeps kT / E_C finite and non-negative.
    thermal = BOLTZMANN * model.temperature * 2.0 \
        * model.total_capacitance / E_CHARGE ** 2
    spread = -math.log(BOUNDARY_MASS_TOLERANCE) * thermal
    if not model.batched:
        return max(3, math.ceil(1.0 + math.sqrt(spread)))
    return np.maximum(3, np.ceil(1.0 + np.sqrt(spread))).astype(int)


def chain_currents(model, drains: np.ndarray,
                   gates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Birth-death chain currents of single-island bias points.

    The one windowed chain behind every ``master`` session and device
    batch (:meth:`~repro.compact.set_model.AnalyticSETModel.chain_current`).
    Each point starts on a window of ``2 K + 1`` states, ``K`` growing
    with ``kT / E_C`` of its parameters, capped at
    :data:`~repro.master.statespace.MAX_STATES` states.  A point whose
    boundary states hold more than
    :data:`~repro.master.statespace.BOUNDARY_MASS_TOLERANCE` is solved
    again with ``K + 2``, only that point
    (:func:`~repro.master.statespace.widened_half`), until a wider window
    would exceed ``MAX_STATES`` states, where one
    ``master.window_truncated`` degradation per window size reports the
    mass and the window is kept.  So a point's current depends on its own
    bias and parameters only, never on the other points of the call.

    Parameters
    ----------
    model:
        An :class:`~repro.compact.set_model.AnalyticSETModel` whose
        parameters are scalars or one value per point.
    drains, gates:
        Drain and gate voltage of each point, in volt (1-D).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The currents in ampere, and the points whose chain is reducible,
        whose currents are not meaningful.
    """
    from ..master.statespace import (BOUNDARY_MASS_TOLERANCE, MAX_STATES,
                                     widened_half)

    currents = np.empty(gates.shape)
    reducible = np.zeros(gates.shape, dtype=bool)
    cap = (MAX_STATES - 1) // 2
    half_widths = _chain_half_width(model)
    if isinstance(half_widths, int):
        attempts = [(None, min(half_widths, cap))]
    else:
        half_widths = np.minimum(half_widths, cap)
        values = np.unique(half_widths)
        attempts = [(None if values.size == 1
                     else np.flatnonzero(half_widths == half), int(half))
                    for half in values]
    while attempts:
        points, half = attempts.pop()
        at = slice(None) if points is None else points
        currents[at], mass, reducible[at] = _model_at(
            model, points).chain_current(drains[at], gates[at], half)
        leaking = mass > BOUNDARY_MASS_TOLERANCE
        if leaking.any() and (leaking := leaking & ~reducible[at]).any():
            wider = widened_half(half, 1, mass[leaking], 2 * half + 1)
            if wider is not None:
                attempts.append((np.flatnonzero(leaking) if points is None
                                 else points[leaking], wider))
    return currents, reducible


def _model_at(model, points: Optional[np.ndarray]):
    """``model`` with its per-point parameters restricted to ``points``."""
    if points is None:
        return model
    arrays = {field.name: value[points]
              for field in dataclasses.fields(model)
              if isinstance(value := getattr(model, field.name), np.ndarray)}
    return dataclasses.replace(model, **arrays) if arrays else model


class MasterSession(_CircuitSession):
    """Bound master-equation session on the closed-form birth-death chain.

    The bound SET is a single island, so under sequential tunnelling its
    charge is a birth-death chain: :meth:`solve`, :meth:`sweep` and every
    :meth:`stream` block run :func:`chain_currents` on the device's
    compact-model twin, one rate call per window attempt for the whole
    block.  A point's current does not depend on the block it is solved
    in, so a stream, a sweep and per-point :meth:`solve` calls agree bit
    for bit.  A point whose chain is reducible (a zero rate traps the mass
    away from the window centre) is handed, on its own, to the stacked
    solve of a :class:`~repro.master.steadystate.MasterEquationSolver`,
    built on first use, which keeps the closed-class answer.
    """

    def __init__(self, device: SETTransistor, temperature: float,
                 background_charge: Optional[float] = None) -> None:
        super().__init__(MasterEngine.name, device, temperature,
                         background_charge)
        self._model = analytic_model_for(device, self.temperature,
                                         self._bound_offset)
        self._stack_solver = None

    def solve(self, bias: BiasPoint) -> Observables:
        """Stationary drain current at one bias point (a one-point chain)."""
        model = self._model if bias.offset_charge is None else \
            analytic_model_for(self.device, self.temperature,
                               background_charge=bias.offset_charge)
        (current,), (reducible,) = chain_currents(
            model, np.array([bias.drain_voltage]),
            np.array([bias.gate_voltage]))
        if reducible:
            self._apply_bias(bias)
            (current,) = self._stacked_currents([bias.gate_voltage])
        current = inject_value("master.current", float(current))
        return Observables(current=float(current), engine=self.engine_name)

    def _sweep(self, axes: SweepAxes, workers: int) -> SweepResult:
        """The gate axis as one chain batch.

        Only the reducible points reach the solver; ``workers > 1`` splits
        them over processes, and each point is solved alike wherever it
        runs, so the currents do not depend on ``workers``.
        """
        gates = axes.gates
        currents, reducible = chain_currents(
            self._model, np.full(gates.shape, axes.drain_voltage), gates)
        if reducible.any():
            self._begin_sweep(axes.drain_voltage)
            currents[reducible] = self._stacked_currents(gates[reducible],
                                                         workers)
        return SweepResult(axes=axes, currents=currents, stderrs=None,
                           engine=self.engine_name)

    def _solver_currents(self, gates: np.ndarray,
                         drains: np.ndarray) -> np.ndarray:
        """Solver currents of reducible points, each at its own drain.

        The bound offset holds at every point; the points of one drain
        share one :meth:`_stacked_currents` stack.
        """
        currents = np.empty(gates.shape)
        for drain in np.unique(drains):
            at = drains == drain
            self._begin_sweep(float(drain))
            currents[at] = self._stacked_currents(gates[at])
        return currents

    def _stacked_currents(self, gates, workers: int = 1) -> np.ndarray:
        """Drain currents of the circuit's stacked solve at ``gates``.

        Each point is solved as in a sweep of the solver, started from its
        window centre, whatever other points share the stack.
        """
        if self._stack_solver is None:
            from ..master.steadystate import MasterEquationSolver

            self._stack_solver = MasterEquationSolver(
                self._circuit, temperature=self.temperature)
        return self._stack_solver.sweep_source(GATE_SOURCE, gates,
                                               DRAIN_JUNCTION,
                                               workers=workers)[1]

    def stream(self, axes: SweepAxes, *,
               policy: Optional[FailurePolicy] = None,
               on_status: Optional[Callable[[PointRecord], None]] = None,
               ) -> Iterator[Tuple[float, Observables]]:
        """Stream the sweep in :meth:`sweep` blocks of doubling size.

        Blocks hold 1, 2, 4, ... points, at most
        :data:`~repro.resilience.execution.STREAM_BLOCK_POINTS`.  Each is
        one chain batch, and a point's current does not depend on its
        block, so the streamed currents equal ``self.sweep(axes).currents``
        bit for bit.  The first point comes out after a one-point chain,
        and a consumer that stops after ``k`` points has had fewer than
        ``2 k`` solved.  Under a ``policy`` a clean block yields ``ok``
        points and any other block is replayed point by point through
        :meth:`solve`, which runs the same chain, under the full policy
        (see :func:`~repro.resilience.execution.stream_blocks_with_policy`).

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        policy:
            Optional failure policy (see :meth:`Session.stream`).
        on_status:
            Callback receiving each point's typed record (requires
            ``policy``).

        Yields
        ------
        (gate_voltage, Observables)
            One pair per sweep point, in axis order.
        """
        from ..resilience.execution import (
            stream_blocks,
            stream_blocks_with_policy,
        )

        if policy is not None:
            yield from stream_blocks_with_policy(self, axes, policy,
                                                 on_status=on_status)
            return
        _require_policy(on_status)
        for _, block in stream_blocks(axes):
            yield from self.sweep(block)


class MasterEngine(Engine):
    """The exact sequential-tunnelling master equation as an engine.

    Every device is a single-island SET, whose charge under sequential
    tunnelling is a birth-death chain: sessions and device batches
    (:meth:`solve_devices`) solve it in closed form on an automatic
    charge-state window (:func:`chain_currents`).  Points whose chain is
    reducible fall back to the circuit's master-equation solver.
    """

    name = "master"

    def capabilities(self) -> EngineCapabilities:
        """Exact-sequential, deterministic, closed-form sweeps."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_EXACT_SEQUENTIAL,
            stochastic=False,
            supports_ensemble=False,
            # Not the chain's measured cost: one per-point figure cannot
            # price a one-point solve, a sweep point and a batch row, and
            # a figure below the analytic engine's would make
            # select_engine("auto", approximate=True) pick master.  That
            # choice waits for per-shape costs (ROADMAP items 5 and 6).
            cost=CostModel(setup_s=5e-3, per_point_s=2.3e-5),
            description="exact sequential tunnelling on a charge-state "
                        "window; closed-form birth-death chain sweeps; "
                        "the correctness reference")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> MasterSession:
        """Bind a chain session (stochastic knobs ignored)."""
        return MasterSession(device, temperature,
                             background_charge=background_charge)

    def solve_devices(self, table: DeviceTable, gates, drains, *,
                      max_events: int = 20_000, warmup_events: int = 1_000,
                      replicas: int = 0) -> np.ndarray:
        """The whole batch as one closed-form birth-death chain per point.

        Each point runs :func:`chain_currents` on the batched twin of
        :func:`analytic_model_for_table`, with the window of its own row,
        so a row's currents are bit-identical to a :meth:`bind` +
        ``solve`` of its points, and do not depend on the other rows of
        the table.  A reducible point (a zero rate that traps mass away
        from the start state) goes, with the other reducible points of its
        row, to the stacked solve of a session bound to that row, one
        stack per drain, as :meth:`MasterSession.solve` would send it.
        Every other point is within ``1e-12`` of its row's peak current of
        an exact solution of the chain's rates (see PERFORMANCE.md, "Exact
        single-island tier").  See :meth:`Engine.solve_devices` for the
        parameters.
        """
        gates, drains = _bias_grid(table, gates, drains)
        if not gates.size:
            return np.empty(gates.shape)
        rows = np.repeat(np.arange(len(table)), gates.shape[1])
        model = analytic_model_for_table(table, rows)
        currents, reducible = chain_currents(model, drains.ravel(),
                                             gates.ravel())
        currents = currents.reshape(gates.shape)
        reducible = reducible.reshape(gates.shape)
        fallback = np.flatnonzero(reducible.any(axis=1))
        if fallback.size:
            for row in fallback:
                session = self.bind(table.device(row),
                                    **table.bind_options(row))
                at = reducible[row]
                currents[row, at] = session._solver_currents(gates[row, at],
                                                             drains[row, at])
        return currents


# ======================================================================
# montecarlo / ensemble
# ======================================================================


class MonteCarloSession(_CircuitSession):
    """Bound kinetic Monte-Carlo session: one warm trajectory or R replicas.

    The simulator is constructed once at bind time, so its event tables,
    memoised rate cache, and seeded random stream persist across
    :meth:`solve` calls and power the warm-started :meth:`sweep`.
    ``replicas`` of ``0`` runs one trajectory (block-averaged error bars),
    ``R >= 1`` replicas (replica-spread error bars, infinite at ``R = 1``).
    """

    def __init__(self, engine_name: str, device: SETTransistor,
                 temperature: float, seed: Optional[int] = None,
                 background_charge: Optional[float] = None,
                 max_events: int = 20_000,
                 warmup_events: int = 1_000,
                 replicas: int = 0) -> None:
        from ..montecarlo.simulator import MonteCarloSimulator

        super().__init__(engine_name, device, temperature, background_charge)
        self.seed = seed
        self.max_events = int(max_events)
        self.warmup_events = int(warmup_events)
        self.replicas = int(replicas)
        self.simulator = MonteCarloSimulator(self._circuit,
                                             temperature=self.temperature,
                                             seed=seed)

    def solve(self, bias: BiasPoint) -> Observables:
        """Stationary-current estimate at one bias point, with error bar."""
        self._apply_bias(bias)
        estimate = self.simulator.stationary_current(
            DRAIN_JUNCTION, max_events=self.max_events,
            warmup_events=self.warmup_events,
            replicas=self.replicas or None)
        current = inject_value("montecarlo.current", float(estimate.mean))
        return Observables(current=float(current),
                           stderr=float(estimate.stderr),
                           engine=self.engine_name,
                           extras={"events": float(estimate.events),
                                   "duration_s": float(estimate.duration)})

    def _sweep(self, axes: SweepAxes, workers: int) -> SweepResult:
        """Warm-started gate sweep (``R`` replicas per point on ``ensemble``).

        ``workers`` processes partition the bias points; seeded results
        depend on ``workers`` but not on the host's CPU count.  The
        estimates carry per-point standard errors.
        """
        self._begin_sweep(axes.drain_voltage)
        _, currents, stderrs = self.simulator.sweep_source(
            GATE_SOURCE, axes.gates, DRAIN_JUNCTION,
            max_events=self.max_events, warmup_events=self.warmup_events,
            warm_start=True, workers=workers, ensemble=self.replicas or None)
        return SweepResult(axes=axes, currents=currents, stderrs=stderrs,
                           engine=self.engine_name)


#: The Monte-Carlo engines: name -> whether sessions run an ensemble.
_MONTECARLO_ENGINES: Dict[str, bool] = {"montecarlo": False,
                                        "ensemble": True}


class MonteCarloEngine(Engine):
    """The physics-complete kinetic Monte-Carlo simulator as an engine.

    One class, registered as ``montecarlo`` and ``ensemble`` (see the
    module docstring).  Ensemble binds coerce ``replicas < 1`` to 2, the
    smallest ensemble with a spread.

    Parameters
    ----------
    name:
        Registry name, a key of :data:`_MONTECARLO_ENGINES`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.ensemble = _MONTECARLO_ENGINES[name]

    def capabilities(self) -> EngineCapabilities:
        """Stochastic-complete; priced by the native advance loop."""
        from ..montecarlo.jit import jit_backend

        kind = "R-replica Monte Carlo; replica-spread error bars" \
            if self.ensemble else "kinetic Monte Carlo: co-tunnelling, " \
            "traps, transients; warm-started sweeps; block-averaged error bars"
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_STOCHASTIC_FULL,
            stochastic=True,
            supports_ensemble=self.ensemble,
            cost=CostModel(setup_s=1e-2 if self.ensemble else 5e-3,
                           per_point_s=1e-4 if self.ensemble else 5e-4),
            description=f"{kind}; advance loop ({jit_backend()})")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> MonteCarloSession:
        """Bind a warm session (``replicas`` ignored off ``ensemble``)."""
        replicas = (int(replicas) if int(replicas) >= 1 else 2) \
            if self.ensemble else 0
        return MonteCarloSession(self.name, device, temperature, seed=seed,
                                 background_charge=background_charge,
                                 max_events=max_events,
                                 warmup_events=warmup_events,
                                 replicas=replicas)


register_engine(AnalyticEngine())
register_engine(MasterEngine())
for _name in _MONTECARLO_ENGINES:
    register_engine(MonteCarloEngine(_name))


__all__ = [
    "AnalyticEngine",
    "AnalyticSession",
    "MasterEngine",
    "MasterSession",
    "MonteCarloEngine",
    "MonteCarloSession",
    "analytic_model_for",
    "analytic_model_for_table",
    "chain_currents",
]
