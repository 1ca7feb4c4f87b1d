"""The canonical simulation API: engines, bound sessions, common results.

The paper's central argument is that single-electron design needs *both*
simulator families — fast SPICE-style compact models and physics-complete
stochastic simulators — behind one device description.  This module is the
contract that makes the combination real:

* an :class:`Engine` describes one backend: :meth:`Engine.capabilities`
  exposes the flags callers introspect instead of hard-coding engine names
  (exactness class, stochasticity, ensemble support, a rough cost model),
  and :meth:`Engine.bind` turns a device plus operating conditions into a
  :class:`Session`;
* a :class:`Session` is the *bound* compute object.  It owns whatever warm
  state the backend accumulates — a compact model, a master-equation solver
  with its cached transition structure, a Monte-Carlo simulator with its
  event tables and warm trajectory — so that :meth:`Session.solve`,
  :meth:`Session.sweep` and :meth:`Session.stream` are structure-reusing by
  construction;
* every engine returns the same data model: :class:`Observables` for one
  bias point and :class:`SweepResult` for a sweep, which bridges directly to
  the :class:`~repro.io.results.SweepRecord` archives the scenario layer
  stores.

Concrete engines live in :mod:`repro.engines.adapters` and are resolved by
name through :mod:`repro.engines.registry` (``get_engine``/``list_engines``).
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..constants import BOLTZMANN, E_CHARGE
from ..devices.set_transistor import SETTransistor
from ..errors import ValidationError
from ..io.results import SweepRecord
from ..resilience.policy import FailurePolicy, PointRecord

#: Exactness classes an engine may declare (coarsest physics first).
EXACTNESS_APPROXIMATE = "approximate-sequential"
EXACTNESS_EXACT_SEQUENTIAL = "exact-sequential"
EXACTNESS_STOCHASTIC_FULL = "stochastic-complete"

EXACTNESS_CLASSES = (EXACTNESS_APPROXIMATE, EXACTNESS_EXACT_SEQUENTIAL,
                     EXACTNESS_STOCHASTIC_FULL)


@dataclass(frozen=True)
class CostModel:
    """Order-of-magnitude cost estimates for planning and engine selection.

    The numbers are *rules of thumb* distilled from the repository's
    ``BENCH_*.json`` measurements on the reference SET — they rank engines
    against each other; they are not per-machine predictions.

    Parameters
    ----------
    setup_s:
        One-off cost of :meth:`Engine.bind` plus the first solve (circuit
        construction, table building, factorisation), in seconds.
    per_point_s:
        Marginal cost of one additional bias point in a bound session, in
        seconds.
    """

    setup_s: float
    per_point_s: float


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine can do, for callers that introspect instead of guess.

    Parameters
    ----------
    name:
        Registry name of the engine.
    exactness:
        One of :data:`EXACTNESS_CLASSES` — the fidelity class of the
        physics the engine evaluates.
    stochastic:
        Whether results are statistical estimates carrying standard errors
        (``True`` implies :attr:`Observables.stderr` is populated).
    supports_ensemble:
        Whether the engine advances batched replicas and derives error bars
        from the replica spread.
    supports_temperature_array:
        Whether bound sessions implement :meth:`Session.temperature_sweep`
        — evaluating one bias point across a whole temperature array in a
        single cheap call (closed-form models only, today).
    cost:
        Rough :class:`CostModel` used for documentation and ``auto``
        engine selection.
    description:
        One-line summary shown by ``python -m repro engines``.
    available:
        Whether the engine's backend is usable in this process.  Engines
        with optional dependencies (e.g. the JIT engines' native advance
        loop) register unconditionally but declare ``available=False``
        when the dependency is missing, so capability-based selection
        skips them and scripts can detect them without importing anything.
    """

    name: str
    exactness: str
    stochastic: bool
    supports_ensemble: bool
    supports_temperature_array: bool
    cost: CostModel
    description: str = ""
    available: bool = True

    def __post_init__(self) -> None:
        if self.exactness not in EXACTNESS_CLASSES:
            raise ValidationError(
                f"unknown exactness class {self.exactness!r}; choose from "
                f"{EXACTNESS_CLASSES}")

    def flags(self) -> Dict[str, bool]:
        """The boolean capability flags as a plain dict (CLI/JSON output)."""
        return {
            "stochastic": self.stochastic,
            "supports_ensemble": self.supports_ensemble,
            "supports_temperature_array": self.supports_temperature_array,
            "available": self.available,
        }


@dataclass(frozen=True)
class BiasPoint:
    """One operating point of a bound session.

    Parameters
    ----------
    gate_voltage:
        Gate bias in volt.
    drain_voltage:
        Drain bias in volt.
    offset_charge:
        Optional island offset charge in coulomb, overriding the session's
        bound background charge for this point only (electrometer-style
        charge probing).
    """

    gate_voltage: float
    drain_voltage: float
    offset_charge: Optional[float] = None


@dataclass(frozen=True)
class SweepAxes:
    """The axes of one :meth:`Session.sweep` call: a gate sweep at fixed drain.

    Parameters
    ----------
    gate_voltages:
        Gate bias values to visit, in order, in volt.
    drain_voltage:
        Fixed drain bias in volt.
    """

    gate_voltages: Tuple[float, ...]
    drain_voltage: float

    def __init__(self, gate_voltages: Sequence[float],
                 drain_voltage: float) -> None:
        # ndarray.tolist() yields Python floats far faster than a per-value
        # float() loop — this constructor sits on the dispatch fast path.
        values = tuple(np.asarray(gate_voltages, dtype=float).ravel().tolist())
        if not values:
            raise ValidationError("sweep axes need at least one gate voltage")
        object.__setattr__(self, "gate_voltages", values)
        object.__setattr__(self, "drain_voltage", float(drain_voltage))

    @property
    def gates(self) -> np.ndarray:
        """The gate axis as a float array."""
        return np.asarray(self.gate_voltages, dtype=float)

    def __len__(self) -> int:
        """Number of sweep points."""
        return len(self.gate_voltages)

    def bias_points(self) -> Iterator[BiasPoint]:
        """The axes as an ordered iterator of :class:`BiasPoint`."""
        for gate in self.gate_voltages:
            yield BiasPoint(gate_voltage=gate,
                            drain_voltage=self.drain_voltage)


@dataclass(frozen=True)
class Observables:
    """What one solved bias point produced, uniformly across engines.

    Parameters
    ----------
    current:
        Drain current in ampere.
    stderr:
        Standard error of the current for stochastic engines; ``None`` for
        the deterministic ones.
    engine:
        Name of the engine that produced the value.
    extras:
        Optional named auxiliary scalars (events executed, replica count,
        ...), engine-specific but always JSON-able floats.
    """

    current: float
    stderr: Optional[float] = None
    engine: str = ""
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """The uniform product of one :meth:`Session.sweep` call.

    Parameters
    ----------
    axes:
        The swept axes.
    currents:
        Drain currents in ampere, one per gate point (NaN at points a
        failure policy abandoned).
    stderrs:
        Per-point standard errors for stochastic engines, else ``None``.
    engine:
        Name of the engine that ran the sweep.
    statuses:
        Typed per-point :class:`~repro.resilience.policy.PointRecord`
        entries when the sweep ran under a
        :class:`~repro.resilience.policy.FailurePolicy`; ``None`` on plain
        sweeps (every point then succeeded — a plain sweep raises
        otherwise).
    """

    axes: SweepAxes
    currents: np.ndarray
    stderrs: Optional[np.ndarray]
    engine: str
    statuses: Optional[Tuple[PointRecord, ...]] = None

    def __post_init__(self) -> None:
        currents = np.asarray(self.currents, dtype=float)
        object.__setattr__(self, "currents", currents)
        if self.stderrs is not None:
            stderrs = np.asarray(self.stderrs, dtype=float)
            object.__setattr__(self, "stderrs", stderrs)
            if stderrs.shape != currents.shape:
                raise ValidationError(
                    f"stderrs shape {stderrs.shape} does not match currents "
                    f"shape {currents.shape}")
        if currents.shape != (len(self.axes),):
            raise ValidationError(
                f"currents shape {currents.shape} does not match the "
                f"{len(self.axes)}-point sweep axes")
        if self.statuses is not None:
            statuses = tuple(self.statuses)
            object.__setattr__(self, "statuses", statuses)
            if len(statuses) != len(self.axes):
                raise ValidationError(
                    f"{len(statuses)} status records do not match the "
                    f"{len(self.axes)}-point sweep axes")

    def status_counts(self) -> Dict[str, int]:
        """Histogram of per-point statuses (empty when ``statuses`` is None)."""
        counts: Dict[str, int] = {}
        for record in self.statuses or ():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def solved_mask(self) -> np.ndarray:
        """Boolean mask of points carrying a usable current sample.

        Without status records every point of a successful sweep is solved;
        with them, the mask reflects each record's ``solved`` property.
        """
        if self.statuses is None:
            return np.ones(len(self.axes), dtype=bool)
        return np.asarray([record.solved for record in self.statuses],
                          dtype=bool)

    @property
    def gates(self) -> np.ndarray:
        """The swept gate values as a float array."""
        return self.axes.gates

    def __len__(self) -> int:
        """Number of sweep points."""
        return len(self.axes)

    def __iter__(self) -> Iterator[Tuple[float, Observables]]:
        """Iterate ``(gate_voltage, Observables)`` pairs in sweep order."""
        for position, gate in enumerate(self.axes.gate_voltages):
            yield gate, self.point(position)

    def point(self, position: int) -> Observables:
        """The :class:`Observables` of one sweep point by index."""
        stderr = None if self.stderrs is None \
            else float(self.stderrs[position])
        return Observables(current=float(self.currents[position]),
                           stderr=stderr, engine=self.engine)

    def astuple(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(gates, currents, stderrs)`` — the legacy ``id_vg`` tuple form."""
        return self.gates, self.currents, self.stderrs

    def record(self, name: str, sweep_label: str = "V_gate [V]",
               trace_label: str = "I_drain [A]",
               metadata: Optional[Dict[str, str]] = None) -> SweepRecord:
        """Bridge to the archival :class:`~repro.io.results.SweepRecord`.

        Parameters
        ----------
        name:
            Record identifier.
        sweep_label, trace_label:
            Axis labels for the archived CSV/JSON.
        metadata:
            Extra string metadata; the engine name is always included.

        Returns
        -------
        repro.io.results.SweepRecord
            The sweep with its current trace (plus a stderr trace for
            stochastic engines) and metadata.
        """
        traces = {trace_label: self.currents}
        if self.stderrs is not None:
            traces[f"stderr {trace_label}"] = self.stderrs
        merged = {"engine": self.engine}
        merged.update(metadata or {})
        return SweepRecord(name=name, sweep_label=sweep_label,
                           sweep_values=self.gates, traces=traces,
                           metadata=merged)


#: :class:`SETTransistor` fields a :class:`DeviceTable` column may carry.
_DEVICE_FIELDS = tuple(f.name for f in dataclasses.fields(SETTransistor))


@dataclass(frozen=True, eq=False)
class DeviceTable:
    """A batch of devices in column form, with per-row operating conditions.

    Row ``i`` stands for ``base`` with each column's ``i``-th value
    substituted (what :meth:`device` builds with ``dataclasses.replace``),
    bound at ``temperature[i]`` with island offset
    ``background_charge[i]`` and seed ``seeds[i]``.  The resolved
    per-junction parameters (:attr:`c_drain`, :attr:`r_source`, ...) and
    the figures of merit mirror :class:`SETTransistor` element-wise, so
    array code can read a table wherever it would read a device.

    Parameters
    ----------
    base:
        The device every row starts from.
    columns:
        Mapping :class:`SETTransistor` field name -> per-row values.
    temperature:
        Per-row temperature in kelvin.
    background_charge:
        Per-row island offset charge in coulomb; ``None``: every row keeps
        its device's own offset.
    seeds:
        Per-row seeds for stochastic engines; ``None``: unseeded.
    """

    base: SETTransistor
    columns: Mapping[str, np.ndarray]
    temperature: np.ndarray
    background_charge: Optional[np.ndarray] = None
    seeds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        """Coerce the columns to float arrays and check their lengths."""
        temperature = np.asarray(self.temperature, dtype=float).ravel()
        object.__setattr__(self, "temperature", temperature)
        unknown = sorted(set(self.columns) - set(_DEVICE_FIELDS))
        if unknown:
            raise ValidationError(
                f"device table columns {unknown} are not SETTransistor "
                f"fields; choose from {_DEVICE_FIELDS}")
        object.__setattr__(self, "columns", {
            name: np.asarray(values, dtype=float).ravel()
            for name, values in self.columns.items()})
        if self.background_charge is not None:
            object.__setattr__(self, "background_charge", np.asarray(
                self.background_charge, dtype=float).ravel())
        if self.seeds is not None:
            object.__setattr__(self, "seeds",
                               np.asarray(self.seeds, dtype=np.int64).ravel())
        for label, values in [("background_charge", self.background_charge),
                              ("seeds", self.seeds),
                              *self.columns.items()]:
            if values is not None and len(values) != len(temperature):
                raise ValidationError(
                    f"device table column {label!r} has {len(values)} rows, "
                    f"expected {len(temperature)}")

    def __len__(self) -> int:
        """Number of rows (devices)."""
        return len(self.temperature)

    # -------------------------------------------------------------- columns

    def column(self, name: str) -> np.ndarray:
        """Per-row values of one :class:`SETTransistor` field.

        Fields without a column repeat the base device's value (NaN where
        the base leaves an optional field unset).
        """
        if name in self.columns:
            return self.columns[name]
        value = getattr(self.base, name)
        return np.full(len(self), np.nan if value is None else float(value))

    def _resolved(self, override: str, fallback: str) -> np.ndarray:
        """A per-junction field, falling back to the symmetric one."""
        if override in self.columns or getattr(self.base, override) is not None:
            return self.column(override)
        return self.column(fallback)

    @property
    def c_drain(self) -> np.ndarray:
        """Drain-junction capacitances in farad."""
        return self._resolved("drain_capacitance", "junction_capacitance")

    @property
    def c_source(self) -> np.ndarray:
        """Source-junction capacitances in farad."""
        return self._resolved("source_capacitance", "junction_capacitance")

    @property
    def r_drain(self) -> np.ndarray:
        """Drain-junction tunnel resistances in ohm."""
        return self._resolved("drain_resistance", "junction_resistance")

    @property
    def r_source(self) -> np.ndarray:
        """Source-junction tunnel resistances in ohm."""
        return self._resolved("source_resistance", "junction_resistance")

    @property
    def gate_capacitance(self) -> np.ndarray:
        """Gate capacitances in farad."""
        return self.column("gate_capacitance")

    @property
    def offset_charge(self) -> np.ndarray:
        """Island offset charge each row is bound at, in coulomb."""
        if self.background_charge is not None:
            return self.background_charge
        return self.column("background_charge")

    @property
    def total_capacitance(self) -> np.ndarray:
        """Total island capacitances ``C_sigma`` in farad."""
        total = self.c_drain + self.c_source + self.gate_capacitance
        if "second_gate_capacitance" in self.columns \
                or self.base.second_gate_capacitance is not None:
            total = total + self.column("second_gate_capacitance")
        return total

    @property
    def gate_period(self) -> np.ndarray:
        """Coulomb-oscillation gate periods ``e / C_g`` in volt."""
        return E_CHARGE / self.gate_capacitance

    @property
    def voltage_gain(self) -> np.ndarray:
        """Intrinsic voltage gains ``C_g / C_drain``."""
        return self.gate_capacitance / self.c_drain

    def max_operating_temperature(self, margin: float = 40.0) -> np.ndarray:
        """Highest usable temperatures (K), one per row.

        Same arithmetic as :meth:`SETTransistor.max_operating_temperature`.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return E_CHARGE**2 / (2.0 * self.total_capacitance) \
                / (margin * BOLTZMANN)

    # ----------------------------------------------------------------- rows

    def rejected(self) -> np.ndarray:
        """Rows whose device :class:`SETTransistor` would refuse to build."""
        mask = np.zeros(len(self), dtype=bool)
        for name in ("junction_capacitance", "gate_capacitance",
                     "junction_resistance"):
            if name in self.columns:
                mask |= self.columns[name] <= 0.0
        return mask

    def device(self, row: int) -> SETTransistor:
        """The concrete device of one row."""
        if not self.columns:
            return self.base
        return dataclasses.replace(self.base, **{
            name: float(values[row]) for name, values in self.columns.items()})

    def bind_options(self, row: int) -> Dict[str, Any]:
        """The per-row :meth:`Engine.bind` keywords of one row."""
        return {
            "temperature": float(self.temperature[row]),
            "seed": None if self.seeds is None else int(self.seeds[row]),
            "background_charge": None if self.background_charge is None
            else float(self.background_charge[row]),
        }

    def take(self, rows) -> "DeviceTable":
        """The sub-table of the given row indices (or boolean mask)."""
        return DeviceTable(
            base=self.base,
            columns={name: values[rows]
                     for name, values in self.columns.items()},
            temperature=self.temperature[rows],
            background_charge=None if self.background_charge is None
            else self.background_charge[rows],
            seeds=None if self.seeds is None else self.seeds[rows])


def _bias_grid(table: DeviceTable, gates,
               drains) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and broadcast the per-row biases of a batch solve.

    Parameters
    ----------
    table:
        The device batch.
    gates:
        Gate voltages, shape ``(len(table), biases)``.
    drains:
        Drain voltages broadcastable to the shape of ``gates``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``gates`` and ``drains`` as float arrays of the same 2-D shape.
    """
    gates = np.asarray(gates, dtype=float)
    if gates.ndim != 2 or gates.shape[0] != len(table):
        raise ValidationError(
            f"gates must have shape ({len(table)}, biases), got "
            f"{gates.shape}")
    drains = np.broadcast_to(np.asarray(drains, dtype=float), gates.shape)
    return gates, drains


class Session(abc.ABC):
    """A backend bound to one device and one set of operating conditions.

    Sessions own the backend's warm state (solvers, tables, trajectories),
    so repeated :meth:`solve` calls and whole :meth:`sweep`/:meth:`stream`
    runs reuse structure instead of rebuilding it per point.  Obtain one via
    :meth:`Engine.bind`; sessions are single-threaded objects — bind one per
    worker if you parallelise outside :meth:`sweep`'s own ``workers`` fan-out.

    Parameters
    ----------
    engine_name:
        Registry name of the engine that bound this session.
    device:
        The bound SET device (``None`` for sessions wrapping a bare compact
        model, see :meth:`repro.engines.adapters.AnalyticSession.from_model`).
    temperature:
        Operating temperature in kelvin.
    background_charge:
        Island offset charge in coulomb (``None``: the device's own).
    """

    def __init__(self, engine_name: str, device: Optional[SETTransistor],
                 temperature: float,
                 background_charge: Optional[float] = None) -> None:
        self.engine_name = engine_name
        self.device = device
        self.temperature = float(temperature)
        self.background_charge = background_charge

    @abc.abstractmethod
    def solve(self, bias: BiasPoint) -> Observables:
        """Solve one bias point and return its :class:`Observables`."""

    @abc.abstractmethod
    def sweep(self, axes: SweepAxes, *, workers: int = 1) -> SweepResult:
        """Run a gate sweep on the engine's fast path.

        Every adapter keeps this on the backend's structure-reusing
        machinery: one broadcast evaluation for the analytic model, a
        transition-table-reusing sweep for the master equation, and
        warm-started (optionally replica-batched) sweeps for the
        Monte-Carlo family.

        Every built-in adapter additionally accepts a keyword-only
        ``policy`` (a :class:`~repro.resilience.policy.FailurePolicy`):
        the sweep then runs through the fault-tolerant executor — the fast
        path is still tried first, but per-point failures are retried,
        time-boxed, and recorded as typed statuses on the result instead
        of aborting the sweep (see :mod:`repro.resilience`).

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        workers:
            Worker processes for point fan-out (``1`` = in-process).

        Returns
        -------
        SweepResult
            Currents (and, for stochastic engines, standard errors) over
            the gate axis.
        """

    def _sweep_with_policy(self, axes: SweepAxes, policy: FailurePolicy, *,
                           workers: int = 1) -> SweepResult:
        """Adapter hook: run ``axes`` through the fault-tolerant executor.

        Concrete ``sweep`` implementations delegate here when called with a
        ``policy``; the executor re-enters ``sweep`` *without* a policy for
        its optimistic fast path, so the engine's structure-reusing
        machinery still does the clean-run work.

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        policy:
            The per-point failure policy.
        workers:
            Worker processes for the fast-path fan-out.

        Returns
        -------
        SweepResult
            With per-point ``statuses`` populated.
        """
        from ..resilience.execution import run_policy_sweep

        return run_policy_sweep(self, axes, policy, workers=workers)

    def temperature_sweep(self, bias: BiasPoint,
                          temperatures: Sequence[float]) -> np.ndarray:
        """Drain currents at one bias point across many temperatures.

        Only engines whose capabilities declare
        ``supports_temperature_array`` implement this; the default raises
        so callers can rely on the capability flag instead of trying.

        Parameters
        ----------
        bias:
            The fixed operating point.
        temperatures:
            Temperatures in kelvin.

        Returns
        -------
        numpy.ndarray
            Drain currents in ampere, one per temperature.
        """
        raise ValidationError(
            f"engine {self.engine_name!r} does not support temperature "
            "arrays (capabilities().supports_temperature_array is False); "
            "bind one session per temperature instead")

    def stream(self, axes: SweepAxes, *,
               policy: Optional[FailurePolicy] = None,
               on_status: Optional[Callable[[PointRecord], None]] = None,
               ) -> Iterator[Tuple[float, Observables]]:
        """Iterate the sweep incrementally, yielding each point as computed.

        The default implementation solves point by point through
        :meth:`solve` — consumers see partial results immediately (progress
        bars, early stopping) while still profiting from whatever warm
        state :meth:`solve` reuses.

        Parameters
        ----------
        axes:
            Gate axis plus fixed drain bias.
        policy:
            Optional :class:`~repro.resilience.policy.FailurePolicy`; the
            stream then retries/time-boxes each point and yields abandoned
            points with NaN current instead of raising.
        on_status:
            Callback receiving each point's typed
            :class:`~repro.resilience.policy.PointRecord` (requires
            ``policy``).

        Yields
        ------
        (gate_voltage, Observables)
            One pair per sweep point, in axis order.
        """
        if policy is not None:
            from ..resilience.execution import stream_with_policy

            yield from stream_with_policy(self, axes, policy,
                                          on_status=on_status)
            return
        if on_status is not None:
            raise ValidationError(
                "stream(on_status=...) requires a FailurePolicy: status "
                "records only exist under policy execution")
        for bias in axes.bias_points():
            yield bias.gate_voltage, self.solve(bias)


class Engine(abc.ABC):
    """One simulation backend, resolvable by name through the registry.

    Engines are stateless factories: :meth:`capabilities` describes the
    backend, :meth:`bind` creates the stateful :class:`Session` that
    actually computes.
    """

    #: Registry name; subclasses must override.
    name: str = ""

    @abc.abstractmethod
    def capabilities(self) -> EngineCapabilities:
        """The engine's capability declaration (see :class:`EngineCapabilities`)."""

    @abc.abstractmethod
    def bind(self, device: SETTransistor, *, temperature: float,
             seed: Optional[int] = None,
             background_charge: Optional[float] = None,
             max_events: int = 20_000, warmup_events: int = 1_000,
             replicas: int = 0) -> Session:
        """Bind the engine to a device and operating conditions.

        Parameters
        ----------
        device:
            The SET device to simulate.
        temperature:
            Operating temperature in kelvin.
        seed:
            Root seed for stochastic engines (ignored by deterministic
            ones, accepted uniformly so callers need no per-engine cases).
        background_charge:
            Island offset charge in coulomb (``None``: the device's own).
        max_events, warmup_events:
            Per-estimate event budgets for stochastic engines.
        replicas:
            Replica count for ensemble-capable engines.

        Returns
        -------
        Session
            The bound, structure-reusing compute session.
        """

    def solve_devices(self, table: DeviceTable, gates, drains, *,
                      max_events: int = 20_000, warmup_events: int = 1_000,
                      replicas: int = 0) -> np.ndarray:
        """Drain currents of a batch of devices, each at its own biases.

        The default binds one session per row and solves the row's biases
        in column order — the per-device ``bind`` + ``solve`` loop, so it
        returns exactly what the engine's sessions return.  Engines that
        can evaluate a whole batch in one array computation override it.

        Parameters
        ----------
        table:
            The devices with their temperatures, offsets and seeds.
        gates:
            Gate voltages, shape ``(len(table), biases)``.
        drains:
            Drain voltages broadcastable to the shape of ``gates``.
        max_events, warmup_events, replicas:
            Budgets forwarded to :meth:`bind`.

        Returns
        -------
        numpy.ndarray
            Drain currents in ampere, the shape of ``gates``.
        """
        gates, drains = _bias_grid(table, gates, drains)
        currents = np.empty(gates.shape)
        for row in range(len(table)):
            session = self.bind(table.device(row), max_events=max_events,
                                warmup_events=warmup_events,
                                replicas=replicas, **table.bind_options(row))
            for column in range(gates.shape[1]):
                currents[row, column] = session.solve(BiasPoint(
                    float(gates[row, column]),
                    float(drains[row, column]))).current
        return currents


__all__ = [
    "BiasPoint",
    "CostModel",
    "DeviceTable",
    "EXACTNESS_APPROXIMATE",
    "EXACTNESS_CLASSES",
    "EXACTNESS_EXACT_SEQUENTIAL",
    "EXACTNESS_STOCHASTIC_FULL",
    "Engine",
    "EngineCapabilities",
    "Observables",
    "Session",
    "SweepAxes",
    "SweepResult",
]
