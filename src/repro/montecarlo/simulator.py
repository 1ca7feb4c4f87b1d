"""User-facing kinetic Monte-Carlo simulator (the package's SIMON equivalent).

:class:`MonteCarloSimulator` runs transient trajectories and estimates
stationary currents for arbitrary single-electron circuits, with optional
co-tunnelling channels and background-charge traps.  It is the "detailed
Monte-Carlo simulator that captures all the necessary physics but is limited
in terms of circuit size" from the paper's §4; the complementary fast/compact
path is :mod:`repro.compact`.

Voltage sweeps are batched: :meth:`MonteCarloSimulator.sweep_source` carries a
*warm* simulation state from one bias point to the next (the kernel's cached
event tables and potentials survive the bias change) and can optionally fan
the points out over worker processes.  A point is one phased run (warm-up
plus estimate blocks, or warm-up plus ensemble window) through one driver,
:meth:`MonteCarloSimulator._run_phases`, for trajectories and ensembles
alike; a serial sweep is one such run with a point axis, which writes every
point's phase boundaries into one ``(points, phases + 1, replicas)`` record,
and the current estimator runs once over all points
(:func:`~repro.montecarlo.observables.block_estimates` or
:func:`~repro.montecarlo.observables.replica_estimates`).

Every run — :meth:`run`, :meth:`run_ensemble`, :meth:`stationary_current`
and a whole serial :meth:`sweep_source`, one trajectory or ``R`` replicas,
with or without charge traps — is one call of the kernel's advance loop
(:meth:`~repro.montecarlo.kernel.MonteCarloKernel.run_phases`), on whichever
backend :func:`~repro.montecarlo.jit.resolve_advance` loads.  An ensemble's
replica spread replaces single-trajectory block averaging for the standard
error (``stationary_current(replicas=R)``, ``sweep_source(ensemble=R)``);
block averaging is kept as the reference estimator.  A trajectory's trap
occupations ride in its configuration row; event records, occupation
statistics and trap-flip counts are folded from the loop's event log, which
only a :meth:`run` with hooks or traps asks for.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..circuit.validation import validate_circuit
from ..constants import E_CHARGE
from ..core.energy import GROUND_STATE_LIMIT
from ..errors import SimulationError
from .kernel import UNBOUNDED_EVENTS, MonteCarloKernel, PhaseRecord
from .observables import (
    CurrentEstimate,
    CurrentEstimates,
    EnsembleResult,
    EventRecord,
    OccupationStatistics,
    TrajectoryResult,
    block_estimates,
    replica_estimates,
)
from .state import (
    EnsembleState,
    SimulationState,
    initial_ensemble,
    initial_state,
)


def _budget(max_events: Optional[int]) -> int:
    """A phase's event budget (unbounded when only time limits it)."""
    return UNBOUNDED_EVENTS if max_events is None else int(max_events)


#: Event blocks of a sweep point's single-trajectory estimate.
SWEEP_BLOCKS = 10


class _PointRecords:
    """The phase schedule of estimator points and their phase boundaries.

    A point runs a warm-up, then ``blocks`` equal event blocks of one
    trajectory or one window of an ensemble; the ``max_events`` budget is
    split evenly over the blocks or over the replicas, so scalar and
    ensemble estimates at equal budgets do comparable stochastic work.
    ``times``, ``counts`` and ``transferred`` (the estimated junction's
    tally) are ``(points, phases + 1, replicas)`` stacks of the
    :class:`PhaseRecord` rows of every point's phased run, copied in point
    by point (:meth:`store`) or taken from one record of every point
    (:meth:`take`).
    """

    def __init__(self, points: int, max_events: int, warmup_events: int,
                 blocks: int, replicas: Optional[int], column: int) -> None:
        if replicas is None:
            self.schedule = [warmup_events] \
                + [max(1, max_events // blocks)] * blocks
        else:
            self.schedule = [warmup_events, max(1, max_events // replicas)]
        shape = (points, len(self.schedule) + 1, replicas or 1)
        self.ensemble = replicas is not None
        self.column = column
        self.times = np.zeros(shape)
        self.counts = np.zeros(shape, dtype=np.int64)
        self.transferred = np.zeros(shape)

    def store(self, point: int, record: PhaseRecord) -> None:
        """Keep the phase boundaries of point ``point``'s run."""
        self.times[point] = record.times
        self.counts[point] = record.counts
        self.transferred[point] = record.transfers[:, :, self.column]

    def take(self, record: PhaseRecord) -> None:
        """Read every point's phase boundaries from ``record`` (no copy)."""
        self.times, self.counts, transfers = record.stacks
        self.transferred = transfers[..., self.column]

    def estimates(self) -> CurrentEstimates:
        """The current estimator, run once over every point.

        A trajectory is block-averaged over its blocks (rows 1 onwards: row
        1 ends the warm-up); an ensemble is estimated from its replica
        spread over the last phase.
        """
        times, counts, transferred = self.times, self.counts, self.transferred
        if self.ensemble:
            return replica_estimates(
                -(transferred[:, -1] - transferred[:, -2]) * E_CHARGE,
                times[:, -1] - times[:, -2],
                (counts[:, -1] - counts[:, -2]).sum(axis=1))
        return block_estimates(transferred[:, 1:, 0], times[:, 1:, 0],
                               counts[:, -1, 0] - counts[:, 1, 0])


class _SweepAxis(NamedTuple):
    """The bias points of a serial sweep, as ``_run_phases`` takes them.

    ``voltages`` is the ``(points, sources)`` source vector of each point
    (:meth:`MonteCarloSimulator._source_stack`); ``starts`` is ``None`` for
    a warm sweep, else the ``(points, islands)`` ground state every point
    starts from.
    """

    source: str
    values: Sequence[float]
    voltages: np.ndarray
    starts: Optional[np.ndarray]


def _phase_result(record: PhaseRecord, phase: int,
                  ensemble: EnsembleState) -> EnsembleResult:
    """What phase ``phase`` of an ensemble's phased run did, per replica."""
    return EnsembleResult(
        durations=record.times[phase + 1] - record.times[phase],
        event_counts=record.counts[phase + 1] - record.counts[phase],
        electron_transfers=(record.transfers[phase + 1]
                            - record.transfers[phase]),
        junction_names=ensemble.junction_names,
        final_electrons=ensemble.electrons.copy(),
    )


class MonteCarloSimulator:
    """Kinetic Monte-Carlo simulation of a single-electron circuit.

    Parameters
    ----------
    circuit:
        The circuit to simulate.  It is validated on construction; hard
        violations raise immediately so that a long run cannot silently
        produce nonsense.
    temperature:
        Temperature in kelvin.
    seed:
        Seed for the internal random generator (``None`` gives a fresh
        non-deterministic stream).
    include_cotunneling:
        Whether inelastic co-tunnelling channels are included.
    validate:
        Set to ``False`` to skip circuit validation (used by tests that
        deliberately build pathological circuits).
    resync_interval:
        New configurations between full island-potential re-solves.

    ``REPRO_JIT_BACKEND`` picks the backend of the advance loop (see
    :func:`~repro.montecarlo.jit.resolve_advance`); every backend replays
    the same events, so seeded results do not depend on it.
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 seed: Optional[int] = None,
                 include_cotunneling: bool = False,
                 validate: bool = True,
                 resync_interval: int = 1024) -> None:
        if validate:
            validate_circuit(circuit).raise_if_invalid()
        self.circuit = circuit
        self.temperature = float(temperature)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.kernel = MonteCarloKernel(circuit, temperature, self.rng,
                                       include_cotunneling=include_cotunneling,
                                       resync_interval=resync_interval)
        #: Transfer column of each junction (the circuit's junction order).
        self._junction_column = {junction.name: column for column, junction
                                 in enumerate(circuit.junctions())}
        #: One-replica ensemble a trajectory's advance-loop runs go through.
        self._trajectory: Optional[EnsembleState] = None

    # ------------------------------------------------------------------- runs

    def new_state(self, electrons: Optional[Sequence[int]] = None) -> SimulationState:
        """A fresh simulation state (ground-state electrons by default)."""
        electron_array = None if electrons is None else np.asarray(electrons,
                                                                   dtype=np.int64)
        return initial_state(self.circuit, self.kernel.model, electron_array)

    def run(self, max_events: Optional[int] = None,
            duration: Optional[float] = None,
            state: Optional[SimulationState] = None,
            record_events: bool = False,
            occupation: Optional[OccupationStatistics] = None) -> TrajectoryResult:
        """Run a trajectory until an event budget or a time budget is exhausted.

        Parameters
        ----------
        max_events:
            Stop after this many executed events.
        duration:
            Stop once the simulated time advances past this many seconds.
            At least one of ``max_events``/``duration`` must be given.
        state:
            Continue from an existing state instead of a fresh one.
        record_events:
            Keep a per-event record (time, label, configuration) in the
            result.  Off by default because long runs produce millions of
            events.
        occupation:
            Optional :class:`OccupationStatistics` accumulator filled with
            dwell times.

        Returns
        -------
        TrajectoryResult
            Elapsed simulated time, executed events, per-junction electron
            transfers, the final configuration, and (when requested) the
            per-event records.
        """
        if max_events is None and duration is None:
            raise SimulationError("specify max_events and/or duration")
        if state is None:
            state = self.new_state()
        start_time = state.time
        start_events = state.event_count
        start = self._configuration(state)
        log = [] if record_events or occupation is not None \
            or self.kernel.traps else None
        self._run_phases(state, [_budget(max_events)], duration, log=log)
        records, trap_flips = self._fold_log(
            log, start_time, start, record_events, occupation) \
            if log else ([], 0)
        return TrajectoryResult(
            duration=state.time - start_time,
            event_count=state.event_count - start_events,
            electron_transfers=dict(state.electron_transfers),
            final_electrons=state.electron_tuple(),
            records=records,
            trap_flips=trap_flips,
        )

    def _fold_log(self, log: list, start_time: float, start: np.ndarray,
                  record_events: bool,
                  occupation: Optional[OccupationStatistics]
                  ) -> Tuple[List[EventRecord], int]:
        """Event records and trap flips of a run's event log.

        ``log`` holds the ``(times, events, configurations)`` chunks of a
        run from ``start_time`` in configuration ``start``; each row's
        dwell (the time since the row before) goes to the configuration
        the row left, in row order, into ``occupation``.
        """
        times, events, configurations = (np.concatenate(column)
                                         for column in zip(*log))
        islands = self.kernel.model.island_count
        records: List[EventRecord] = []
        if record_events:
            labels = [candidate.label
                      for candidate in self.kernel.event_candidates]
            applied = events >= 0
            records = [EventRecord(time=time, label=labels[event],
                                   electrons=tuple(electrons))
                       for time, event, electrons in zip(
                           times[applied].tolist(), events[applied].tolist(),
                           configurations[applied, :islands].tolist())]
        if occupation is not None:
            left = np.vstack([start[None, :islands],
                              configurations[:-1, :islands]])
            for electrons, dwell in zip(
                    left.tolist(), np.diff(times, prepend=start_time).tolist()):
                occupation.record(tuple(electrons), dwell)
        return records, int(np.count_nonzero(
            events >= self.kernel.first_trap_event))

    def _run_phases(self, state: "SimulationState | EnsembleState",
                    schedule: Sequence[int],
                    duration: Optional[float] = None,
                    sweep: Optional[_SweepAxis] = None,
                    log: Optional[list] = None) -> PhaseRecord:
        """Advance a trajectory or an ensemble through a phase schedule.

        The one driver of both estimators.  Phase ``p`` runs until every
        replica executed ``schedule[p]`` events (or ``duration`` elapsed,
        or a blockade), phase-major; the returned record holds the clocks,
        event counts and per-junction transfers at every phase boundary —
        an ensemble's absolute counters, a trajectory's counts and
        transfers relative to the start.  With ``sweep`` the schedule runs
        at every point of the axis, the replicas carried from point to
        point (or restarted from each point's ground state) with their
        clocks and counters zeroed, one record row block per point.  The
        whole run is one
        :meth:`~repro.montecarlo.kernel.MonteCarloKernel.run_phases` call
        (a trajectory runs as a one-replica ensemble, which replays it bit
        for bit), which fills ``log`` with the event log of a one-phase
        trajectory run.
        """
        if sweep is None:
            points, voltages, starts = 1, None, None
        else:
            points, voltages, starts = (len(sweep.values), sweep.voltages,
                                        sweep.starts)
        if isinstance(state, EnsembleState):
            record = self.kernel.phase_record(schedule, state.replica_count,
                                              points)
            record.store(0, state.times, state.event_counts,
                         state.electron_transfers)
            self.kernel.run_phases(state, record, duration, voltages, starts)
            return record
        record = self.kernel.phase_record(schedule, 1, points)
        record.store(0, state.time, 0, 0.0)
        run = self._as_ensemble(state)
        try:
            self.kernel.run_phases(run, record, duration, voltages, starts,
                                   log)
        finally:
            self._commit(run, state)
        return record

    def _configuration(self, state: SimulationState) -> np.ndarray:
        """``state``'s configuration row: its electrons, then its traps'
        occupations (``1`` while a trap holds an electron)."""
        return np.concatenate([state.electrons, [
            state.trap_occupancy.get(trap.name, False)
            for trap in self.kernel.traps]]).astype(np.int64)

    def _as_ensemble(self, state: SimulationState) -> EnsembleState:
        """``state`` loaded into the reused one-replica ensemble.

        The clock and configuration are copied in; the event count and
        transfers start from zero (:meth:`_commit` adds them back).
        """
        configuration = self._configuration(state)
        run = self._trajectory
        if run is None:
            run = self._trajectory = EnsembleState(
                times=np.zeros(1), electrons=configuration[None].copy(),
                event_counts=np.zeros(1, dtype=np.int64),
                electron_transfers=np.zeros((1, len(self._junction_column))),
                junction_names=tuple(self._junction_column))
        else:
            run.electrons[0] = configuration
        run.times[0] = state.time
        run.event_counts[0] = 0
        run.electron_transfers.fill(0.0)
        return run

    def _commit(self, run: EnsembleState, state: SimulationState) -> None:
        """Write a one-replica run's progress back into ``state``."""
        islands = self.kernel.model.island_count
        state.time = float(run.times[0])
        state.electrons = run.electrons[0, :islands].copy()
        state.trap_occupancy.update(
            (trap.name, bool(occupied)) for trap, occupied
            in zip(self.kernel.traps, run.electrons[0, islands:].tolist()))
        tallies = state.electron_transfers
        for name, transferred in zip(self._junction_column,
                                     run.electron_transfers[0].tolist()):
            # The per-event transfer values are small integers, so the
            # aggregated float sums are exact and match a one-increment-
            # per-event accumulation bitwise.
            tallies[name] += transferred
        state.event_count += int(run.event_counts[0])

    # -------------------------------------------------------------- ensembles

    def new_ensemble(self, replicas: int,
                     electrons: Optional[Sequence[int]] = None
                     ) -> EnsembleState:
        """A fresh ``R``-replica ensemble state (ground state by default)."""
        return initial_ensemble(self.circuit, self.kernel.model, replicas,
                                electrons)

    def run_ensemble(self, replicas: Optional[int] = None,
                     max_events: Optional[int] = None,
                     duration: Optional[float] = None,
                     ensemble: Optional[EnsembleState] = None
                     ) -> EnsembleResult:
        """Advance ``R`` independent replicas until each exhausts its budget.

        The ensemble equivalent of :meth:`run`: every replica follows its own
        stochastic trajectory (all sharing the circuit, bias point and
        memoised rate tables); the replicas run one after another through
        the kernel's advance loop
        (:meth:`~repro.montecarlo.kernel.MonteCarloKernel.run_phases`).
        Budgets apply per replica: each stops after ``max_events`` executed
        events and/or once its clock advances past ``duration`` seconds.

        Parameters
        ----------
        replicas:
            Number of replicas for a fresh ensemble (ignored when
            ``ensemble`` is given).
        max_events, duration:
            Per-replica budgets; at least one must be given.
        ensemble:
            Continue from an existing :class:`EnsembleState` instead of a
            fresh ground-state ensemble.

        Returns
        -------
        EnsembleResult
            Per-replica durations, event counts, per-junction electron
            transfers, and final configurations; its
            :meth:`~repro.montecarlo.observables.EnsembleResult.current_estimate`
            turns the replica spread into an error bar.
        """
        if max_events is None and duration is None:
            raise SimulationError("specify max_events and/or duration")
        if ensemble is None:
            if replicas is None:
                raise SimulationError("specify replicas or an ensemble state")
            ensemble = self.new_ensemble(replicas)

        record = self._run_phases(ensemble, [_budget(max_events)], duration)
        return _phase_result(record, 0, ensemble)

    # -------------------------------------------------------------- stationary

    def stationary_current(self, junction_name: str,
                           max_events: int = 20_000,
                           warmup_events: int = 1_000,
                           blocks: int = 10,
                           replicas: Optional[int] = None) -> CurrentEstimate:
        """Estimate the stationary current through one junction.

        The default estimator counts the net electron transfer through the
        junction over the post-warm-up part of a single long trajectory,
        split into ``blocks`` equal event blocks for a standard-error
        estimate.  With ``replicas`` set, the total event budget is instead
        spread over ``R`` independent replicas advanced in one ensemble
        run, and the replica spread provides the error bar — same physics
        and no block-length correlation caveat (block averaging remains
        available as the reference estimator).

        Parameters
        ----------
        junction_name:
            Junction whose conventional current (``node_a`` -> ``node_b``) is
            estimated.
        max_events:
            Total number of events after warm-up (split across replicas in
            ensemble mode).
        warmup_events:
            Events discarded at the start to forget the initial condition
            (per replica in ensemble mode).
        blocks:
            Number of blocks for the single-trajectory error estimate.
        replicas:
            Optional replica count; ``None`` (default) runs the scalar
            block-averaged estimator, values >= 1 run the ensemble
            estimator.  ``replicas=1`` yields the same mean as the scalar
            estimator at the same seed (one trajectory, no spread — the
            standard error is infinite).

        Returns
        -------
        CurrentEstimate
            Mean current in ampere with its standard error, plus the block
            count, simulated duration, and executed events behind it.
        """
        self._check_estimator_args(junction_name, blocks)
        if replicas is not None and replicas < 1:
            raise SimulationError(
                "need at least 1 replica for an ensemble estimate")
        records = _PointRecords(1, max_events, warmup_events, blocks,
                                replicas, self._junction_column[junction_name])
        state = self.new_state() if replicas is None \
            else self.new_ensemble(replicas)
        records.take(self._run_phases(state, records.schedule))
        return records.estimates().point(0)

    def _check_estimator_args(self, junction_name: str, blocks: int) -> None:
        if junction_name not in self._junction_column:
            raise SimulationError(f"unknown junction {junction_name!r}")
        if blocks < 2:
            raise SimulationError("need at least 2 blocks for an error estimate")

    def sweep_source(self, source: str, values: Sequence[float],
                     junction_name: str, max_events: int = 20_000,
                     warmup_events: int = 1_000,
                     warm_start: bool = True,
                     workers: int = 1,
                     ensemble: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep a voltage source and estimate the current at every point.

        The whole serial sweep is one phased run of :meth:`_run_phases`
        with a point axis: the kernel's advance loop walks the points,
        carrying the replicas, and returns to Python once per point for the
        point's rate tables.  The sweep keeps all points' phase boundaries
        and runs the estimator of :meth:`stationary_current` once,
        vectorised over the points.  The kernel holds the ``(points,
        sources)`` source vectors of the sweep (:meth:`_source_stack`)
        while it runs, so a root configuration's rate rows are evaluated
        once per block of points rather than once per point
        (:meth:`MonteCarloKernel.plan_sweep
        <repro.montecarlo.kernel.MonteCarloKernel.plan_sweep>`); the
        results are bit-identical to evaluating every point on its own.

        Parameters
        ----------
        source:
            Voltage source (element or node name) to sweep.
        values:
            Bias values to visit, in order.
        junction_name:
            Junction whose current is estimated at each point.
        max_events, warmup_events:
            Per-point event budgets (see :meth:`stationary_current`).
        warm_start:
            Carry the simulation state from one bias point to the next instead
            of re-equilibrating from a cold ground state every time.  The
            kernel's construction-time event tables survive the bias change
            (the per-configuration rate memo is rebuilt, since every rate
            depends on the bias; its root rows come from the sweep's plan).
            Set to ``False`` for the legacy cold-start behaviour.
        workers:
            Number of worker processes.  ``1`` (default) runs in-process;
            larger values split the bias points into
            ``min(workers, len(values))`` contiguous chunks, each simulated
            on an independent circuit copy in a process pool with a seed
            drawn from this simulator's generator.  Seeded results therefore
            depend on ``workers`` but not on the host's CPU count.  A worker
            error or a broken pool propagates.
        ensemble:
            Optional replica count.  When set (>= 2), every bias point is
            estimated from an ``R``-replica ensemble run (replica
            spread for the error bar) instead of a single block-averaged
            trajectory; with ``warm_start`` the whole ensemble is carried
            from one bias point to the next.

        Returns
        -------
        (values, currents, stderrs):
            The applied bias values, the estimated currents in ampere, and
            their standard errors, as equal-length float arrays.
        """
        self._check_estimator_args(junction_name, SWEEP_BLOCKS)
        if ensemble is not None and ensemble < 1:
            raise SimulationError(
                "need at least 1 replica for an ensemble estimate")
        if workers > 1 and len(values) > 1:
            return self._sweep_parallel(
                values, workers, source=source, junction_name=junction_name,
                max_events=max_events, warmup_events=warmup_events,
                warm_start=warm_start, ensemble=ensemble)

        original = dict(self.circuit.source_voltages())
        records = _PointRecords(len(values), max_events, warmup_events,
                                SWEEP_BLOCKS, ensemble,
                                self._junction_column[junction_name])
        try:
            if len(values):
                voltages = self._source_stack(source, values)
                self.kernel.plan_sweep(voltages)
                # Every point starts from its own ground state when cold,
                # the first point when warm (one stacked walk gives each
                # row exactly as a walk at that point alone).
                starts = self.kernel.model.ground_states(
                    (GROUND_STATE_LIMIT,),
                    voltages if not warm_start else voltages[:1])[0]
                state = self.new_state(starts[0]) if ensemble is None \
                    else self.new_ensemble(ensemble, starts[0])
                if self.kernel.traps:  # each point in the likelier state
                    starts = np.hstack([starts, np.tile(self._configuration(
                        state)[starts.shape[1]:], (len(starts), 1))])
                records.take(self._run_phases(
                    state, records.schedule,
                    sweep=_SweepAxis(source, values, voltages,
                                     None if warm_start else starts)))
        finally:
            self.kernel.plan_sweep(None)
            for node_name, voltage in original.items():
                if node_name != "gnd":
                    self.circuit.set_source_voltage(node_name, voltage)
        estimates = records.estimates()
        return np.asarray(values, dtype=float), estimates.means, \
            estimates.stderrs

    def _source_stack(self, source: str,
                      values: Sequence[float]) -> np.ndarray:
        """The ``(points, sources)`` source vectors a sweep of ``source`` visits.

        Each row is the circuit's source vector with ``source``'s column
        replaced by ``float(value)``, as ``set_source_voltage`` leaves it;
        the circuit is not written to.
        """
        system = self.kernel.model.system
        stack = np.tile(system.cached_source_voltages(), (len(values), 1))
        column = system.source_index[self.circuit.source_node(source)]
        stack[:, column] = [float(value) for value in values]
        return stack

    def _sweep_parallel(self, values: Sequence[float], workers: int,
                        **sweep_options
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the bias points over a process pool, one seed per chunk."""
        from ..resilience.chunks import fan_out, split_points

        chunks = split_points(values, workers)
        # Worker seeds come from this simulator's generator, not its fixed
        # seed, so repeated sweeps on the same simulator produce independent
        # estimates (as the serial path does) while staying reproducible for
        # a seeded simulator.
        root = np.random.SeedSequence(int(self.rng.integers(2**63)))
        seeds = [int(child.generate_state(1)[0])
                 for child in root.spawn(len(chunks))]
        simulator_args = dict(
            circuit=self.circuit.copy(), temperature=self.temperature,
            include_cotunneling=self.kernel.include_cotunneling,
            validate=False, resync_interval=self.kernel.resync_interval)
        parts = fan_out(functools.partial(_sweep_chunk, simulator_args,
                                          seeds, sweep_options), chunks)
        return (np.asarray(values, dtype=float),
                np.concatenate([currents for currents, _ in parts]),
                np.concatenate([errors for _, errors in parts]))


def _sweep_chunk(simulator_args, seeds, sweep_options,
                 chunk) -> Tuple[np.ndarray, np.ndarray]:
    """Worker body of a fanned-out :meth:`MonteCarloSimulator.sweep_source`."""
    simulator = MonteCarloSimulator(seed=seeds[chunk.index],
                                    **simulator_args)
    _, currents, errors = simulator.sweep_source(values=chunk.points,
                                                 **sweep_options)
    return currents, errors


__all__ = ["MonteCarloSimulator"]
