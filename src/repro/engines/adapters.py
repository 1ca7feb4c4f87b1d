"""The four built-in engines expressed as :class:`~repro.engines.base.Engine` adapters.

Each adapter wraps one existing backend without re-implementing any physics:

* ``analytic`` — :class:`repro.compact.set_model.AnalyticSETModel`, whole
  sweeps in one broadcast ``drain_current_map`` call;
* ``master`` — :class:`repro.master.steadystate.MasterEquationSolver`, whose
  builder caches the transition structure so bound sessions refresh only
  rate values between operating points;
* ``montecarlo`` — :class:`repro.montecarlo.simulator.MonteCarloSimulator`,
  warm-started sweeps carrying event tables and trajectory state across
  bias points;
* ``ensemble`` — the same simulator advancing ``R`` batched replicas, with
  replica-spread error bars;
* ``montecarlo-jit`` / ``ensemble-jit`` — the same simulator with the
  compiled advance loop of :mod:`repro.montecarlo.jit` (numba or a
  C/ctypes build, interpreted fallback otherwise).  They replay the numpy
  engines bit for bit at any given seed and declare themselves
  ``available`` only when a native backend loaded, so capability-based
  selection adopts them exactly when the speedup is real.

The adapters are registered with :mod:`repro.engines.registry` on import;
resolve them with :func:`repro.engines.get_engine` rather than instantiating
these classes directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..devices.set_transistor import (
    DRAIN_JUNCTION,
    DRAIN_SOURCE,
    GATE_SOURCE,
    ISLAND,
    SETTransistor,
)
from ..errors import ValidationError
from ..resilience.faults import inject_value
from ..resilience.policy import FailurePolicy
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
)
from .registry import register_engine


def analytic_model_for(device: SETTransistor, temperature: float,
                       background_charge: Optional[float] = None):
    """The compact-model twin of a :class:`SETTransistor`.

    One place owns the parameter mapping (junction/gate capacitances,
    resistances, offset charge), so the ``analytic`` engine path and code
    that builds compact models directly cannot drift apart.

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
        temperature=float(temperature))


# ======================================================================
# analytic
# ======================================================================


class AnalyticSession(Session):
    """Bound session over a compact SET model (broadcast evaluation).

    Parameters
    ----------
    model:
        Any compact model exposing ``drain_current(vd, vg)`` and the
        broadcast ``drain_current_map(vds, vgs)`` (every SET model in
        :mod:`repro.compact` does).
    device:
        The originating device, when the session was bound from one.
    temperature:
        Operating temperature in kelvin.
    background_charge:
        Island offset charge baked into ``model``, for bookkeeping.
    """

    def __init__(self, model, device: Optional[SETTransistor] = None,
                 temperature: Optional[float] = None,
                 background_charge: Optional[float] = None) -> None:
        resolved = getattr(model, "temperature", 0.0) if temperature is None \
            else temperature
        super().__init__(AnalyticEngine.name, device, resolved,
                         background_charge)
        self.model = model

    @classmethod
    def from_model(cls, model) -> "AnalyticSession":
        """Wrap a bare compact model (no device) in a session.

        This is how analysis code that already holds an
        :class:`~repro.compact.set_model.AnalyticSETModel` (or any model
        with ``drain_current_map``) runs sweeps through the uniform API.
        """
        if getattr(model, "drain_current_map", None) is None:
            raise ValidationError(
                f"{type(model).__name__} has no drain_current_map; the "
                "analytic engine session requires the broadcast interface "
                "(all repro.compact SET models provide it)")
        return cls(model)

    def solve(self, bias: BiasPoint) -> Observables:
        """Closed-form drain current at one bias point."""
        model = self._model_at(bias)
        current = float(model.drain_current(bias.drain_voltage,
                                            bias.gate_voltage))
        return Observables(current=current, engine=self.engine_name)

    def sweep(self, axes: SweepAxes, *, workers: int = 1,
              policy: Optional[FailurePolicy] = None) -> SweepResult:
        """The whole gate sweep in one broadcast ``drain_current_map`` call.

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        workers:
            Accepted for signature uniformity; the broadcast evaluation is
            already a single vectorized call, so it is ignored.
        policy:
            Optional failure policy; routes through the fault-tolerant
            executor (see :meth:`Session.sweep`).

        Returns
        -------
        SweepResult
            Deterministic currents (``stderrs`` is ``None``).
        """
        if policy is not None:
            return self._sweep_with_policy(axes, policy, workers=workers)
        currents = np.asarray(
            self.model.drain_current_map([axes.drain_voltage], axes.gates),
            dtype=float)[0]
        return SweepResult(axes=axes, currents=currents, stderrs=None,
                           engine=self.engine_name)

    def temperature_sweep(self, bias: BiasPoint,
                          temperatures) -> np.ndarray:
        """Closed-form currents at one bias point across many temperatures.

        All temperatures are evaluated in one array-temperature model
        evaluation — this is what the ``supports_temperature_array``
        capability advertises.  The currents follow the array path of
        :meth:`~repro.compact.set_model.AnalyticSETModel.drain_current`, so
        they may differ from per-temperature :meth:`solve` calls by a few
        ulp.

        Parameters
        ----------
        bias:
            The fixed operating point (per-point ``offset_charge`` needs a
            device-bound session, as in :meth:`solve`).
        temperatures:
            Temperatures in kelvin.

        Returns
        -------
        numpy.ndarray
            Drain currents in ampere, one per temperature.
        """
        import dataclasses

        base_model = self._model_at(bias)
        # Contract: rebinding the temperature uses dataclasses.replace, so
        # the model must be a dataclass with a 'temperature' field (every
        # repro.compact SET model is).  Checking that up front — instead of
        # the former bare `except TypeError` around replace() — means a
        # TypeError raised *inside* a model's own __post_init__ validation
        # propagates as the model bug it is rather than being rewritten
        # into this ValidationError.
        fields = getattr(type(base_model), "__dataclass_fields__", None)
        if fields is None or "temperature" not in fields:
            raise ValidationError(
                f"{type(base_model).__name__} cannot be re-evaluated at "
                "a new temperature (not a dataclass with a "
                "'temperature' field); bind from a device instead")
        model = dataclasses.replace(
            base_model,
            temperature=np.asarray(temperatures, dtype=float).ravel())
        return np.asarray(model.drain_current(bias.drain_voltage,
                                              bias.gate_voltage),
                          dtype=float)

    def _model_at(self, bias: BiasPoint):
        """The session model, rebuilt only when a per-point offset differs."""
        if bias.offset_charge is None:
            return self.model
        if self.device is None:
            raise ValidationError(
                "BiasPoint.offset_charge needs a device-bound analytic "
                "session (the offset is a device parameter of the compact "
                "model); bind via get_engine('analytic').bind(device, ...) "
                "instead of AnalyticSession.from_model")
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
            supports_temperature_array=True,
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
        return AnalyticSession(model, device=device, temperature=temperature,
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
        from ..compact.set_model import AnalyticSETModel

        gates, drains = _bias_grid(table, gates, drains)
        if not len(table):
            return np.empty(gates.shape)
        # One device per row: parameters broadcast along the bias columns.
        model = AnalyticSETModel(
            drain_capacitance=table.c_drain[:, None],
            source_capacitance=table.c_source[:, None],
            gate_capacitance=table.gate_capacitance[:, None],
            drain_resistance=table.r_drain[:, None],
            source_resistance=table.r_source[:, None],
            background_charge=table.offset_charge[:, None],
            temperature=table.temperature[:, None])
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
    rate values, and :meth:`sweep` runs the solver's structure-reusing
    ``sweep_source`` fast path.
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

    def sweep(self, axes: SweepAxes, *, workers: int = 1,
              policy: Optional[FailurePolicy] = None) -> SweepResult:
        """Gate sweep on the solver's structure-reusing ``sweep_source`` path.

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        workers:
            Worker processes partitioning the sweep points.
        policy:
            Optional failure policy; routes through the fault-tolerant
            executor (see :meth:`Session.sweep`).

        Returns
        -------
        SweepResult
            Deterministic currents (``stderrs`` is ``None``).
        """
        if policy is not None:
            return self._sweep_with_policy(axes, policy, workers=workers)
        self._begin_sweep(axes)
        _, currents = self._solver.sweep_source(GATE_SOURCE, axes.gates,
                                                DRAIN_JUNCTION,
                                                workers=workers)
        return SweepResult(axes=axes, currents=currents, stderrs=None,
                           engine=self.engine_name)


class MasterEngine(Engine):
    """The exact sequential-tunnelling master equation as an engine."""

    name = "master"

    def capabilities(self) -> EngineCapabilities:
        """Exact-sequential, deterministic, structure-reusing sweeps."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_EXACT_SEQUENTIAL,
            stochastic=False,
            supports_ensemble=False,
            supports_temperature_array=False,
            cost=CostModel(setup_s=5e-3, per_point_s=2.5e-4),
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


# ======================================================================
# montecarlo / ensemble
# ======================================================================


class MonteCarloSession(_CircuitSession):
    """Bound kinetic Monte-Carlo session (single warm trajectory).

    The simulator is constructed once at bind time, so its event tables,
    memoised rate cache, and seeded random stream persist across
    :meth:`solve` calls and power the warm-started :meth:`sweep`.
    """

    #: Replica count; ``0`` on the single-trajectory engine, >= 2 on the
    #: ensemble engine subclass.
    replicas: int = 0

    def __init__(self, device: SETTransistor, temperature: float,
                 seed: Optional[int] = None,
                 background_charge: Optional[float] = None,
                 max_events: int = 20_000,
                 warmup_events: int = 1_000,
                 engine_name: Optional[str] = None,
                 jit: bool = False) -> None:
        from ..montecarlo.simulator import MonteCarloSimulator

        super().__init__(engine_name or MonteCarloEngine.name, device,
                         temperature, background_charge)
        self.seed = seed
        self.max_events = int(max_events)
        self.warmup_events = int(warmup_events)
        self.simulator = MonteCarloSimulator(self._circuit,
                                             temperature=self.temperature,
                                             seed=seed, jit=jit)

    def solve(self, bias: BiasPoint) -> Observables:
        """Stationary-current estimate at one bias point, with error bar."""
        self._apply_bias(bias)
        estimate = self.simulator.stationary_current(
            DRAIN_JUNCTION, max_events=self.max_events,
            warmup_events=self.warmup_events,
            replicas=self.replicas if self.replicas >= 1 else None)
        current = inject_value("montecarlo.current", float(estimate.mean))
        return Observables(current=float(current),
                           stderr=float(estimate.stderr),
                           engine=self.engine_name,
                           extras={"events": float(estimate.events),
                                   "duration_s": float(estimate.duration)})

    def sweep(self, axes: SweepAxes, *, workers: int = 1,
              policy: Optional[FailurePolicy] = None) -> SweepResult:
        """Warm-started gate sweep (replica-batched on the ensemble engine).

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        workers:
            Worker processes partitioning the bias points.
        policy:
            Optional failure policy; routes through the fault-tolerant
            executor (see :meth:`Session.sweep`).

        Returns
        -------
        SweepResult
            Current estimates with per-point standard errors.
        """
        if policy is not None:
            return self._sweep_with_policy(axes, policy, workers=workers)
        self._begin_sweep(axes)
        _, currents, stderrs = self.simulator.sweep_source(
            GATE_SOURCE, axes.gates, DRAIN_JUNCTION,
            max_events=self.max_events, warmup_events=self.warmup_events,
            warm_start=True, workers=workers,
            ensemble=self.replicas if self.replicas >= 1 else None)
        return SweepResult(axes=axes, currents=currents, stderrs=stderrs,
                           engine=self.engine_name)


class EnsembleSession(MonteCarloSession):
    """Bound batched-replica Monte-Carlo session (replica-spread error bars).

    ``replicas`` below 1 is coerced to the smallest statistically useful
    ensemble (2); an explicit ``replicas=1`` is honoured, giving an
    ensemble run that replays the single-trajectory engine bit for bit at
    the same seed (with an infinite error bar, as one replica carries no
    spread information).
    """

    def __init__(self, device: SETTransistor, temperature: float,
                 seed: Optional[int] = None,
                 background_charge: Optional[float] = None,
                 max_events: int = 20_000, warmup_events: int = 1_000,
                 replicas: int = 2,
                 engine_name: Optional[str] = None,
                 jit: bool = False) -> None:
        super().__init__(device, temperature, seed=seed,
                         background_charge=background_charge,
                         max_events=max_events, warmup_events=warmup_events,
                         engine_name=engine_name or EnsembleEngine.name,
                         jit=jit)
        self.replicas = int(replicas) if int(replicas) >= 1 else 2


class MonteCarloEngine(Engine):
    """The physics-complete kinetic Monte-Carlo simulator as an engine."""

    name = "montecarlo"

    def capabilities(self) -> EngineCapabilities:
        """Stochastic-complete, single-trajectory block-averaged statistics."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_STOCHASTIC_FULL,
            stochastic=True,
            supports_ensemble=False,
            supports_temperature_array=False,
            cost=CostModel(setup_s=5e-3, per_point_s=5e-3),
            description="kinetic Monte Carlo: co-tunnelling, traps, "
                        "transients; warm-started sweeps; block-averaged "
                        "error bars")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> MonteCarloSession:
        """Bind a warm single-trajectory session (``replicas`` ignored)."""
        return MonteCarloSession(device, temperature, seed=seed,
                                 background_charge=background_charge,
                                 max_events=max_events,
                                 warmup_events=warmup_events)


class EnsembleEngine(Engine):
    """Batched multi-replica Monte Carlo as an engine."""

    name = "ensemble"

    def capabilities(self) -> EngineCapabilities:
        """Stochastic-complete with batched replicas and spread error bars."""
        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_STOCHASTIC_FULL,
            stochastic=True,
            supports_ensemble=True,
            supports_temperature_array=False,
            cost=CostModel(setup_s=1e-2, per_point_s=1e-3),
            description="batched R-replica Monte Carlo; replica-spread "
                        "error bars at amortised interpreter cost")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 2) -> EnsembleSession:
        """Bind a replica-batched session (``replicas`` coerced to >= 2)."""
        return EnsembleSession(device, temperature, seed=seed,
                               background_charge=background_charge,
                               max_events=max_events,
                               warmup_events=warmup_events,
                               replicas=replicas)


# ======================================================================
# montecarlo-jit / ensemble-jit
# ======================================================================


class MonteCarloJitEngine(Engine):
    """Single-trajectory kinetic Monte Carlo on the compiled advance loop.

    Same physics, estimators, and random stream as ``montecarlo`` — a
    seeded session replays the numpy engine event for event — but the
    inner loop runs in a numba- or C-compiled kernel.  The engine is
    registered unconditionally and declares ``available=False`` when no
    native backend could be loaded, so capability-based selection falls
    back to the numpy engine instead of paying the interpreted shim.
    """

    name = "montecarlo-jit"

    def capabilities(self) -> EngineCapabilities:
        """Like ``montecarlo``, but cheaper per point when a backend loaded."""
        from ..montecarlo.jit import jit_backend, jit_compiled

        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_STOCHASTIC_FULL,
            stochastic=True,
            supports_ensemble=False,
            supports_temperature_array=False,
            cost=CostModel(setup_s=5e-3, per_point_s=5e-4),
            available=jit_compiled(),
            description="kinetic Monte Carlo on a compiled advance loop "
                        f"(backend: {jit_backend()}); bit-identical to "
                        "'montecarlo' at any seed")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> MonteCarloSession:
        """Bind a compiled single-trajectory session (``replicas`` ignored)."""
        return MonteCarloSession(device, temperature, seed=seed,
                                 background_charge=background_charge,
                                 max_events=max_events,
                                 warmup_events=warmup_events,
                                 engine_name=self.name, jit=True)


class EnsembleJitEngine(Engine):
    """Batched multi-replica Monte Carlo on the compiled advance loop.

    Replicas advance sequentially through the compiled kernel, so an
    ``R = 1`` session replays the scalar engines bit for bit; larger
    ensembles agree statistically (the lockstep numpy interleaving
    consumes the random stream in a different order).  Registered
    unconditionally; ``available=False`` without a native backend.
    """

    name = "ensemble-jit"

    def capabilities(self) -> EngineCapabilities:
        """Like ``ensemble``, but cheaper per point when a backend loaded."""
        from ..montecarlo.jit import jit_backend, jit_compiled

        return EngineCapabilities(
            name=self.name,
            exactness=EXACTNESS_STOCHASTIC_FULL,
            stochastic=True,
            supports_ensemble=True,
            supports_temperature_array=False,
            cost=CostModel(setup_s=1e-2, per_point_s=1e-4),
            available=jit_compiled(),
            description="R-replica Monte Carlo on a compiled advance loop "
                        f"(backend: {jit_backend()}); replica-spread error "
                        "bars")

    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 2) -> EnsembleSession:
        """Bind a compiled replica-batched session (``replicas < 1`` → 2)."""
        return EnsembleSession(device, temperature, seed=seed,
                               background_charge=background_charge,
                               max_events=max_events,
                               warmup_events=warmup_events,
                               replicas=replicas,
                               engine_name=self.name, jit=True)


register_engine(AnalyticEngine())
register_engine(MasterEngine())
register_engine(MonteCarloEngine())
register_engine(EnsembleEngine())
register_engine(MonteCarloJitEngine())
register_engine(EnsembleJitEngine())


__all__ = [
    "AnalyticEngine",
    "AnalyticSession",
    "EnsembleEngine",
    "EnsembleJitEngine",
    "EnsembleSession",
    "MasterEngine",
    "MasterSession",
    "MonteCarloEngine",
    "MonteCarloJitEngine",
    "MonteCarloSession",
    "analytic_model_for",
]
