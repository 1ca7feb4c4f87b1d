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
the points out over worker processes.

Statistics are batched too: :meth:`MonteCarloSimulator.run_ensemble` advances
``R`` independent replicas through the kernel's batched
:meth:`~repro.montecarlo.kernel.MonteCarloKernel.step_ensemble`, so every
consumer that needs error bars (stationary currents, sweeps, noise floors)
pays the Python event-loop overhead once per *macro-step* instead of once per
event per replica.  The replica spread then replaces single-trajectory block
averaging for the standard error (``stationary_current(replicas=R)``,
``sweep_source(ensemble=R)``); block averaging is kept as the reference
estimator.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..circuit.validation import validate_circuit
from ..constants import E_CHARGE
from ..errors import SimulationError
from .events import TrapCandidate
from .kernel import UNBOUNDED_EVENTS, MonteCarloKernel, PhaseRecord
from .observables import (
    CurrentEstimate,
    EnsembleResult,
    EventRecord,
    OccupationStatistics,
    TrajectoryResult,
    block_average,
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
    fast_path:
        Use the vectorized kernel implementation (default).  ``False`` runs
        the scalar reference kernel — slower, kept for cross-checking.
    resync_interval:
        Events between full island-potential re-solves on the fast path.
    jit:
        Route trap-free, record-free runs through the kernel's compiled
        advance loop (:mod:`repro.montecarlo.jit`).  ``True`` picks the
        best available backend; a string pins one by name.  The compiled
        paths replay the numpy fast path event for event, so results are
        bit-identical at any given seed.
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 seed: Optional[int] = None,
                 include_cotunneling: bool = False,
                 validate: bool = True,
                 fast_path: bool = True,
                 resync_interval: int = 1024,
                 jit: "bool | str" = False) -> None:
        if validate:
            validate_circuit(circuit).raise_if_invalid()
        self.circuit = circuit
        self.temperature = float(temperature)
        self.seed = seed
        self.jit = jit
        self.rng = np.random.default_rng(seed)
        self.kernel = MonteCarloKernel(circuit, temperature, self.rng,
                                       include_cotunneling=include_cotunneling,
                                       fast_path=fast_path,
                                       resync_interval=resync_interval,
                                       jit=jit)
        #: Transfer column of each junction (the circuit's junction order).
        self._junction_column = {junction.name: column for column, junction
                                 in enumerate(circuit.junctions())}

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
        if record_events or occupation is not None or not self._compiled():
            # Per-event hooks, traps or the numpy kernel: the step loop.
            return self._run_interpreted(state, max_events, duration,
                                         record_events, occupation)
        # Compiled fast path: same trajectory, same random stream, no
        # per-event Python (and the step loop after a kernel fault).
        start_time = state.time
        start_events = state.event_count
        self._run_phases(state, [_budget(max_events)], duration)
        return TrajectoryResult(
            duration=state.time - start_time,
            event_count=state.event_count - start_events,
            electron_transfers=dict(state.electron_transfers),
            final_electrons=state.electron_tuple(),
            records=[],
            trap_flips=0,
        )

    def _compiled(self) -> bool:
        """Whether runs go through the kernel's compiled advance loop."""
        return self.kernel.jit_enabled and not self.kernel.traps

    def _fall_back(self, error: Exception) -> None:
        """Drop to the interpreted path after a compiled-kernel fault."""
        from ..resilience.events import emit_degradation

        self.kernel.disable_jit()
        emit_degradation("jit.run_compiled", "fallback:numpy", repr(error))

    def _run_phases(self, state: SimulationState, schedule: Sequence[int],
                    duration: Optional[float] = None) -> PhaseRecord:
        """Advance ``state`` through a schedule of event budgets, in place.

        Phase ``p`` runs until ``schedule[p]`` events executed (or
        ``duration`` elapsed, or a blockade); the returned record holds the
        clock, the event count and the per-junction transfers at every
        phase boundary (counts and transfers relative to the start).  With
        the compiled kernel the whole schedule is one native call.
        Otherwise — numpy kernel, charge traps, or after a compiled-kernel
        fault, from the last phase boundary the compiled run reached — the
        interpreted :meth:`~repro.montecarlo.kernel.MonteCarloKernel.step`
        loop runs the remaining phases one by one and fills the same
        record, so the estimators have one code path.
        """
        record = self.kernel.phase_record(schedule)
        junctions = list(self._junction_column)
        start_events = state.event_count
        start_transfers = [state.electron_transfers[name]
                           for name in junctions]
        record.store(0, state.time, 0, 0.0)
        if self._compiled():
            # A fault leaves the state at the last phase boundary the
            # compiled run reached (the kernel commits completed phases),
            # and the interpreted loop below continues from there.
            try:
                self.kernel.run_compiled(state, record, duration)
            except Exception as error:
                self._fall_back(error)
            else:
                return record
        for phase in range(record.phase, len(schedule)):
            self._run_interpreted(state, int(record.schedule[phase]),
                                  duration)
            tallies = state.electron_transfers
            record.store(phase + 1, state.time,
                         state.event_count - start_events,
                         [tallies[name] - start
                          for name, start in zip(junctions,
                                                 start_transfers)])
        return record

    def _run_interpreted(self, state: SimulationState,
                         max_events: Optional[int],
                         duration: Optional[float],
                         record_events: bool = False,
                         occupation: Optional[OccupationStatistics] = None
                         ) -> TrajectoryResult:
        """The per-event :meth:`run` loop over the kernel's ``step``."""
        start_time = state.time
        start_events = state.event_count
        records: List[EventRecord] = []
        trap_flips = 0
        stall_strikes = 0
        kernel_step = self.kernel.step
        track_occupation = occupation is not None

        while True:
            if max_events is not None and state.event_count - start_events >= max_events:
                break
            if duration is not None and state.time - start_time >= duration:
                break
            remaining = None
            if duration is not None:
                remaining = duration - (state.time - start_time)
            if track_occupation:
                # Snapshot only when a consumer exists: building a tuple per
                # step would otherwise dominate the fast kernel.
                previous_electrons = state.electron_tuple()
                previous_time = state.time
            step = kernel_step(state, max_waiting_time=remaining)
            if track_occupation:
                occupation.record(previous_electrons, state.time - previous_time)
            if step is None:
                if duration is not None:
                    # Time budget consumed (possibly by a blockade); done.
                    if state.time - start_time >= duration:
                        break
                stall_strikes += 1
                if stall_strikes > 3:
                    # Completely blockaded at T = 0 with no time budget left to
                    # burn: the trajectory cannot advance further.
                    break
                continue
            stall_strikes = 0
            if isinstance(step.candidate, TrapCandidate):
                trap_flips += 1
            if record_events:
                records.append(EventRecord(
                    time=state.time,
                    label=step.candidate.label,
                    electrons=state.electron_tuple(),
                ))

        return TrajectoryResult(
            duration=state.time - start_time,
            event_count=state.event_count - start_events,
            electron_transfers=dict(state.electron_transfers),
            final_electrons=state.electron_tuple(),
            records=records,
            trap_flips=trap_flips,
        )

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

        The batched equivalent of :meth:`run`: every replica follows its own
        stochastic trajectory (all sharing the circuit, bias point and
        memoised rate tables), advanced one event per macro-step through
        :meth:`~repro.montecarlo.kernel.MonteCarloKernel.step_ensemble`.
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

        record = self._run_ensemble_phases(ensemble, [_budget(max_events)],
                                           duration)
        return _phase_result(record, 0, ensemble)

    def _run_ensemble_phases(self, ensemble: EnsembleState,
                             schedule: Sequence[int],
                             duration: Optional[float] = None
                             ) -> PhaseRecord:
        """Advance every replica through a schedule of per-replica budgets.

        The ensemble counterpart of :meth:`_run_phases`: phase-major (every
        replica finishes phase ``p`` before any starts ``p + 1``), one
        native call on the compiled kernel, and the batched interpreted
        loop phase by phase otherwise — or, after a compiled-kernel fault,
        from the phase boundary each replica reached.  An R = 1 ensemble
        replays the scalar run bit for bit.  The record's rows hold the
        ensemble's absolute clocks, event counts and transfer rows.
        """
        record = self.kernel.phase_record(schedule, ensemble.replica_count)
        record.store(0, ensemble.times, ensemble.event_counts,
                     ensemble.electron_transfers)
        if self._compiled():
            try:
                self.kernel.run_ensemble_compiled(ensemble, record, duration)
            except Exception as error:
                self._fall_back(error)
            else:
                return record
        for phase in range(record.phase, len(schedule)):
            # Budgets are metered from each replica's phase-start row, so
            # replicas that already finished this phase natively stay put.
            self._advance_ensemble_interpreted(
                ensemble, int(record.schedule[phase]), duration,
                record.times[phase], record.counts[phase])
            record.store(phase + 1, ensemble.times, ensemble.event_counts,
                         ensemble.electron_transfers)
        return record

    def _advance_ensemble_interpreted(self, ensemble: EnsembleState,
                                      max_events: int,
                                      duration: Optional[float],
                                      start_times: np.ndarray,
                                      start_counts: np.ndarray) -> None:
        """The batched :meth:`run_ensemble` loop over ``step_ensemble``."""
        count = ensemble.replica_count
        finished = np.zeros(count, dtype=bool)
        step_ensemble = self.kernel.step_ensemble
        stall_strikes = 0

        if duration is None \
                and bool((ensemble.event_counts == start_counts).all()):
            # Lockstep fast path: with an event-only budget every unblocked
            # replica executes exactly one event per macro-step, so no
            # per-step budget bookkeeping (and no active mask) is needed
            # until a replica blockades — then fall through to the general
            # loop for the stragglers.  Skipped when a faulted compiled run
            # already advanced some replicas: the general loop below meters
            # the remaining per-replica budgets correctly.
            executed = 0
            while executed < max_events:
                step = step_ensemble(ensemble)
                if step.advanced < count:
                    break
                executed += 1

        while True:
            finished |= (ensemble.event_counts - start_counts) >= max_events
            budgets = None
            if duration is not None:
                elapsed = ensemble.times - start_times
                finished |= elapsed >= duration
                budgets = duration - elapsed
            if finished.all():
                break
            active = ~finished
            step = step_ensemble(ensemble, max_waiting_time=budgets,
                                 active=active)
            if step.advanced == 0:
                # Either every active replica is blockaded (T = 0) or the
                # remaining time budgets round to nothing; as in the scalar
                # run loop a few strikes end the run instead of spinning.
                stall_strikes += 1
                if stall_strikes > 3:
                    break
            else:
                stall_strikes = 0

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
        spread over ``R`` independent replicas advanced in one batched
        ensemble run, and the replica spread provides the error bar — same
        physics, far less interpreter overhead, and no block-length
        correlation caveat (block averaging remains available as the
        reference estimator).

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
        if replicas is not None:
            if replicas < 1:
                raise SimulationError(
                    "need at least 1 replica for an ensemble estimate")
            return self._estimate_current_ensemble(
                self.new_ensemble(replicas), junction_name, warmup_events,
                max_events)
        return self._estimate_current(self.new_state(), junction_name,
                                      warmup_events, max_events, blocks)

    def _check_estimator_args(self, junction_name: str, blocks: int) -> None:
        if not self.circuit.has_element(junction_name):
            raise SimulationError(f"unknown junction {junction_name!r}")
        if blocks < 2:
            raise SimulationError("need at least 2 blocks for an error estimate")

    def _estimate_current(self, state: SimulationState, junction_name: str,
                          warmup_events: int, max_events: int,
                          blocks: int) -> CurrentEstimate:
        """Warm-up plus block-averaged current estimate continuing from ``state``.

        One phased run: the warm-up, then ``blocks`` equal event blocks.
        Block charges and durations are differences of the record's phase
        boundaries; blocks after a blockade are empty (zero duration) and
        drop out with the other zero-duration blocks.  The mean is the
        whole-window charge over the whole-window duration (mathematically
        the duration-weighted block mean, but in the ratio-of-sums form
        shared with the ensemble estimator, so the two are *bit-identical*
        at equal trajectories); block averaging supplies the standard
        error.
        """
        per_block = max(1, max_events // blocks)
        record = self._run_phases(state, [warmup_events] + [per_block] * blocks)
        column = self._junction_column[junction_name]
        # Rows 1..blocks+1 bound the blocks (row 1 ends the warm-up).
        transferred = record.transfers[1:, 0, column]
        clock = record.times[1:, 0]
        charges = -np.diff(transferred) * E_CHARGE
        durations = np.diff(clock)
        events = int(record.counts[-1, 0] - record.counts[1, 0])
        usable = durations > 0.0
        if not usable.any():
            return CurrentEstimate(mean=0.0, stderr=0.0, blocks=0, duration=0.0,
                                   events=events)
        _, stderr, block_count = block_average(charges[usable],
                                               durations[usable])
        total_charge = -(transferred[-1] - transferred[0]) * E_CHARGE
        total_elapsed = clock[-1] - clock[0]
        return CurrentEstimate(
            mean=float(total_charge / total_elapsed),
            stderr=stderr,
            blocks=block_count,
            duration=float(sum(durations[usable].tolist())),
            events=events,
        )

    def _estimate_current_ensemble(self, ensemble: EnsembleState,
                                   junction_name: str, warmup_events: int,
                                   max_events: int) -> CurrentEstimate:
        """Warm-up plus replica-spread current estimate continuing from ``ensemble``.

        One phased run: every replica's warm-up, then the estimate window.
        The total ``max_events`` budget is divided evenly over the replicas,
        so scalar and ensemble estimates at equal budgets do comparable
        amounts of stochastic work.
        """
        per_replica = max(1, max_events // ensemble.replica_count)
        record = self._run_ensemble_phases(ensemble,
                                           [warmup_events, per_replica])
        return _phase_result(record, 1, ensemble).current_estimate(
            junction_name)

    def sweep_source(self, source: str, values: Sequence[float],
                     junction_name: str, max_events: int = 20_000,
                     warmup_events: int = 1_000,
                     warm_start: bool = True,
                     workers: int = 1,
                     ensemble: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep a voltage source and estimate the current at every point.

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
            depends on the bias).  Set to ``False`` for the legacy cold-start
            behaviour.
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
            estimated from an ``R``-replica batched ensemble run (replica
            spread for the error bar) instead of a single block-averaged
            trajectory; with ``warm_start`` the whole ensemble is carried
            from one bias point to the next.

        Returns
        -------
        (values, currents, stderrs):
            The applied bias values, the estimated currents in ampere, and
            their standard errors, as equal-length float arrays.
        """
        self._check_estimator_args(junction_name, blocks=10)
        if ensemble is not None and ensemble < 1:
            raise SimulationError(
                "need at least 1 replica for an ensemble estimate")
        if workers > 1 and len(values) > 1:
            return self._sweep_parallel(
                values, workers, source=source, junction_name=junction_name,
                max_events=max_events, warmup_events=warmup_events,
                warm_start=warm_start, ensemble=ensemble)

        original = dict(self.circuit.source_voltages())
        currents = np.empty(len(values))
        errors = np.empty(len(values))
        state: Optional[SimulationState] = None
        ensemble_state: Optional[EnsembleState] = None
        try:
            for position, value in enumerate(values):
                self.circuit.set_source_voltage(source, float(value))
                if ensemble is not None:
                    if ensemble_state is None or not warm_start:
                        ensemble_state = self.new_ensemble(ensemble)
                    # Zero the clocks per point for the same float64
                    # resolution reason as the scalar warm-start path below.
                    ensemble_state.times[:] = 0.0
                    estimate = self._estimate_current_ensemble(
                        ensemble_state, junction_name, warmup_events,
                        max_events)
                else:
                    if state is None or not warm_start:
                        state = self.new_state()
                    # Zero the clock per point: a blockaded point advances the
                    # simulated time by ~1/rate (astronomical), after which
                    # float64 can no longer resolve nanosecond increments and
                    # every elapsed-time difference would collapse to zero.
                    state.time = 0.0
                    estimate = self._estimate_current(state, junction_name,
                                                      warmup_events,
                                                      max_events, blocks=10)
                currents[position] = estimate.mean
                errors[position] = estimate.stderr
        finally:
            for node_name, voltage in original.items():
                if node_name != "gnd":
                    self.circuit.set_source_voltage(node_name, voltage)
        return np.asarray(values, dtype=float), currents, errors

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
            validate=False, fast_path=self.kernel.fast_path,
            resync_interval=self.kernel.resync_interval, jit=self.jit)
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
