"""The four built-in engines expressed as :class:`~repro.engines.base.Engine` adapters.

Each adapter wraps one existing backend without re-implementing any physics:

* ``analytic`` — :class:`repro.compact.set_model.AnalyticSETModel`, whole
  sweeps in one broadcast ``drain_current_map`` call;
* ``master`` — :class:`repro.master.steadystate.MasterEquationSolver`, whose
  builder caches the transition structure so bound sessions refresh only
  rate values between operating points; device batches run as one
  closed-form birth-death chain per point;
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

    Owns the one circuit built at bind time and the bias bookkeeping every
    circuit-backed engine needs: moving to a :class:`BiasPoint` (including
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
        self._circuit = device.build_circuit(
            background_charge=self._bound_offset)

    def _apply_bias(self, bias: BiasPoint) -> None:
        """Move the bound circuit to ``bias`` (gate, drain, island offset)."""
        self._circuit.set_source_voltage(GATE_SOURCE, bias.gate_voltage)
        self._circuit.set_source_voltage(DRAIN_SOURCE, bias.drain_voltage)
        offset = self._bound_offset if bias.offset_charge is None \
            else float(bias.offset_charge)
        self._circuit.set_offset_charge(ISLAND, offset)

    def _begin_sweep(self, axes: SweepAxes) -> None:
        """Set the sweep's drain bias and restore the bound island offset."""
        self._circuit.set_source_voltage(DRAIN_SOURCE, axes.drain_voltage)
        self._circuit.set_offset_charge(ISLAND, self._bound_offset)


# ======================================================================
# master
# ======================================================================


class MasterSession(_CircuitSession):
    """Bound master-equation session: one solver, cached transition structure.

    The underlying :class:`~repro.master.steadystate.MasterEquationSolver`
    builder caches its :class:`~repro.master.transitions.TransitionTable`
    across operating points, so per-point :meth:`solve` calls refresh only
    rate values, and :meth:`sweep` solves the whole gate axis as one stacked
    batch through ``sweep_source``, bit-identical to the per-point loop it
    replaced.  :meth:`stream` runs the same stacked solve block by block.
    """

    def __init__(self, device: SETTransistor, temperature: float,
                 background_charge: Optional[float] = None) -> None:
        from ..master.steadystate import MasterEquationSolver

        super().__init__(MasterEngine.name, device, temperature,
                         background_charge)
        self._solver = MasterEquationSolver(self._circuit,
                                            temperature=self.temperature)

    def solve(self, bias: BiasPoint) -> Observables:
        """Stationary drain current at one bias point (structure-reusing)."""
        self._apply_bias(bias)
        current = inject_value("master.current",
                               float(self._solver.current(DRAIN_JUNCTION)))
        return Observables(current=float(current), engine=self.engine_name)

    def _sweep(self, axes: SweepAxes, workers: int) -> SweepResult:
        """Gate sweep as one stacked solve on the solver's ``sweep_source``.

        ``workers`` processes partition the sweep points.
        """
        self._begin_sweep(axes)
        _, currents = self._solver.sweep_source(GATE_SOURCE, axes.gates,
                                                DRAIN_JUNCTION,
                                                workers=workers)
        return SweepResult(axes=axes, currents=currents, stderrs=None,
                           engine=self.engine_name)

    def stream(self, axes: SweepAxes, *,
               policy: Optional[FailurePolicy] = None,
               on_status: Optional[Callable[[PointRecord], None]] = None,
               ) -> Iterator[Tuple[float, Observables]]:
        """Stream the sweep in stacked :meth:`sweep` blocks of doubling size.

        Blocks hold 1, 2, 4, ... points, at most
        :data:`~repro.resilience.execution.STREAM_BLOCK_POINTS`.  Each is
        one stacked solve, so the streamed currents equal
        ``self.sweep(axes).currents`` bit for bit.  The first point comes
        out after a one-point solve, and a consumer that stops after ``k``
        points has had fewer than ``2 k`` solved.  Under a ``policy`` a
        clean block yields ``ok`` points and any other block is replayed
        point by point through :meth:`solve` under the full policy (see
        :func:`~repro.resilience.execution.stream_blocks_with_policy`).

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

    Sessions solve the circuit's master equation on an automatic
    charge-state window.  Device batches (:meth:`solve_devices`) skip the
    per-row sessions: a single-island SET is a birth-death chain, solved in
    closed form for the whole table at array cost.
    """

    name = "master"

    def capabilities(self) -> EngineCapabilities:
        """Exact-sequential, deterministic, structure-reusing sweeps."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_EXACT_SEQUENTIAL,
            stochastic=False,
            supports_ensemble=False,
            # A stacked sweep point: BENCH_master.json small_window runs
            # 43 455 sweep points/s (129-point sweep, 7-state window).
            cost=CostModel(setup_s=5e-3, per_point_s=2.3e-5),
            description="exact sequential tunnelling on a charge-state "
                        "window; sparse structure-reusing sweeps; the "
                        "correctness reference")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> MasterSession:
        """Bind a solver-carrying session (stochastic knobs ignored)."""
        return MasterSession(device, temperature,
                             background_charge=background_charge)

    def solve_devices(self, table: DeviceTable, gates, drains, *,
                      max_events: int = 20_000, warmup_events: int = 1_000,
                      replicas: int = 0) -> np.ndarray:
        """The whole batch as one closed-form birth-death chain per point.

        A single-island SET under sequential tunnelling is a birth-death
        chain on the island charge, so each point's stationary state
        follows from rate ratios alone
        (:meth:`~repro.compact.set_model.AnalyticSETModel.chain_current`
        on the batched twin of :func:`analytic_model_for_table`).  The
        window handling mirrors a session's automatic window:

        * ``2 K + 1`` states, with ``K`` from the table's largest
          ``kT / E_C``; points whose boundary states hold more than
          :data:`~repro.master.steadystate.BOUNDARY_MASS_TOLERANCE` are
          solved again with ``K + 2``, only those points, until a wider
          window would exceed :data:`~repro.master.statespace.MAX_STATES`
          states, where one ``master.window_truncated`` degradation
          reports the mass;
        * a row with a reducible point (a zero rate that traps mass away
          from the start state) is solved by the per-row session loop of
          :meth:`Engine.solve_devices`, so it keeps the closed-class answer
          bit for bit.

        Every other point is within ``1e-12`` of its row's peak current
        of an exact solution of the chain's rates.  Per-row sessions agree
        to that on most devices; their dense solve forms the current as a
        difference of larger junction flows and is off by up to ~1e-11 of
        peak on random devices and ~1e-9 at a junction resistance ratio of
        1000 with ``kT >> e|V_d|`` (see PERFORMANCE.md, "Exact
        single-island tier").  See :meth:`Engine.solve_devices` for the
        parameters.
        """
        from ..master.steadystate import (BOUNDARY_MASS_TOLERANCE,
                                          MAX_STATES, widened_half)

        gates, drains = _bias_grid(table, gates, drains)
        currents = np.empty(gates.shape)
        if not currents.size:
            return currents
        flat = currents.reshape(-1)
        rows = np.repeat(np.arange(len(table)), gates.shape[1])
        gate_points, drain_points = gates.ravel(), drains.ravel()
        reducible = np.zeros(flat.size, dtype=bool)
        half = min(_chain_half_width(table, BOUNDARY_MASS_TOLERANCE),
                   (MAX_STATES - 1) // 2)
        pending = np.arange(flat.size)
        while pending.size:
            model = analytic_model_for_table(table, rows[pending])
            flat[pending], mass, reducible[pending] = model.chain_current(
                drain_points[pending], gate_points[pending], half)
            leaking = (mass > BOUNDARY_MASS_TOLERANCE) & ~reducible[pending]
            pending = pending[leaking]
            if pending.size:
                wider = widened_half(half, 1, mass[leaking], 2 * half + 1)
                if wider is None:
                    break
                half = wider
        fallback = np.unique(rows[reducible])
        if fallback.size:
            currents[fallback] = super().solve_devices(
                table.take(fallback), gates[fallback], drains[fallback],
                max_events=max_events, warmup_events=warmup_events,
                replicas=replicas)
        return currents


def _chain_half_width(table: DeviceTable, tolerance: float) -> int:
    """Half-width of the first chain window for a device table.

    The charge distribution falls off about as ``exp(-(n - n_x)^2 E_C /
    kT)``, so a window of ``K >= 1 + sqrt(ln(1/tolerance) kT / E_C)``
    states on each side leaves less than ``tolerance`` on its boundary at
    the table's largest ``kT / E_C``; bias can spread the charge further,
    which the boundary check catches.  Never below a session's ``3``.
    """
    thermal = BOLTZMANN * table.temperature * 2.0 \
        * table.total_capacitance / E_CHARGE ** 2
    # Invalid rows (NaN, negative) are left to the model's validation.
    largest = float(np.max(thermal, where=thermal > 0.0, initial=0.0))
    return max(3, math.ceil(1.0 + math.sqrt(-math.log(tolerance) * largest)))


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
        self._begin_sweep(axes)
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
]
