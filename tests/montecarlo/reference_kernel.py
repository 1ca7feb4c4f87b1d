"""Test oracles of the Monte-Carlo kernel: the step loop and the scalar kernel.

Two kernels the advance loop of :mod:`repro.montecarlo.jit` replaced live on
here as the oracles it is held to.

:class:`StepLoop` is the per-event step loop that ran charge traps, event
records and occupation statistics before they moved into the advance loop:
``MonteCarloKernel.step`` (one event from a memo of per-configuration rate
tables keyed by the electron configuration and the trap occupation, the
successor potentials derived incrementally, an exact re-solve every
``resync_interval`` discoveries and after every trap flip, waiting times and
selection randoms drawn from block buffers) with the simulator's per-event
run loop on top (:meth:`StepLoop.run`) and its phase driver
(:meth:`StepLoop.phases`).  It owns its memo and buffers and reads from the
kernel only its event tables, its generator and its limits, so a seeded
simulator's ``run`` must equal ``StepLoop(kernel).run`` on a fresh simulator
of the same seed, bit for bit.

:class:`ReferenceStepLoop` is the original per-candidate scalar kernel:
every candidate is evaluated one at a time from freshly solved island
potentials, with no tables and no caching, and a step draws its waiting time
and selection straight from the generator.  The vectorized rates must agree
with :func:`candidate_rates_reference` element for element;
``benchmarks/bench_kernel_throughput.py`` measures it as the baseline
through :func:`reference_simulator`.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.constants import E_CHARGE
from repro.core.rates import (
    cotunneling_rate,
    cotunneling_rate_vec,
    orthodox_rate,
    orthodox_rate_vec,
)
from repro.errors import SimulationError
from repro.montecarlo import MonteCarloKernel, MonteCarloSimulator
from repro.montecarlo.events import (
    CotunnelCandidate,
    TrapCandidate,
    TunnelCandidate,
)
from repro.montecarlo.kernel import PhaseRecord
from repro.montecarlo.observables import (
    EventRecord,
    OccupationStatistics,
    TrajectoryResult,
)
from repro.montecarlo.state import SimulationState, initial_state

Candidate = Union[TunnelCandidate, CotunnelCandidate, TrapCandidate]


@dataclass(slots=True)
class KernelStep:
    """Outcome of one kinetic Monte-Carlo step."""

    waiting_time: float
    candidate: Candidate
    total_rate: float


class _Entry:
    """Memoised rate table of one (configuration, trap occupation)."""

    __slots__ = ("electrons", "phi", "cumulative", "total", "last_selectable",
                 "successors")

    def __init__(self, electrons, phi, cumulative, total, last_selectable,
                 n_moves):
        self.electrons = electrons
        self.phi = phi
        self.cumulative = cumulative
        self.total = total
        self.last_selectable = last_selectable
        self.successors: List[Optional["_Entry"]] = [None] * n_moves


class StepLoop:
    """The per-event step loop over one kernel's event tables.

    A rate table holds the tunnel events, then the co-tunnel channels, then
    one column per trap (its emission rate when occupied, its capture rate
    when empty).  Entries never leave the memo except when it reaches the
    kernel's ``_rate_cache_limit`` (then it is cleared) or on a bias or
    offset-charge change.
    """

    def __init__(self, kernel: MonteCarloKernel) -> None:
        self.kernel = kernel
        self.circuit = kernel.circuit
        self.model = kernel.model
        self.traps = kernel.traps
        self._table = kernel._table
        self._cot_table = kernel._cot_table
        self._moves: List[Candidate] = (list(kernel.tunnel_candidates)
                                        + list(kernel.cotunnel_candidates))
        self._n_tunnel = self._table.size
        self._n_moves = len(self._moves)
        self._delta_n = [self._table.delta_n[k] for k in range(self._n_tunnel)]
        self._delta_phi = [self._table.delta_phi[k]
                           for k in range(self._n_tunnel)]
        if self._cot_table is not None:
            self._delta_n += [self._cot_table.delta_n[c]
                              for c in range(self._cot_table.size)]
            self._delta_phi += [self._cot_table.delta_phi[c]
                                for c in range(self._cot_table.size)]
        self._transfers = [candidate.charge_transfers()
                           for candidate in self._moves]
        self._capture_rates = np.array(
            [1.0 / trap.capture_time for trap in self.traps], dtype=float)
        self._emission_rates = np.array(
            [1.0 / trap.emission_time for trap in self.traps], dtype=float)
        self._captures = [TrapCandidate(trap, capture=True)
                          for trap in self.traps]
        self._emissions = [TrapCandidate(trap, capture=False)
                           for trap in self.traps]
        self._positions = np.arange(1, self._n_moves + len(self.traps) + 1)
        self._junctions = [junction.name
                           for junction in self.circuit.junctions()]
        self._voltages: Optional[np.ndarray] = None
        self._bias_version = -1
        self._offsets: Optional[np.ndarray] = None
        self._offsets_version = -1
        self._trap_snapshot: Optional[dict] = None
        self._trap_bits = 0
        self._entries_since_resync = 0
        self._memo: dict = {}
        self._exp_buffer = np.empty(0)
        self._exp_position = 0
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0

    # ----------------------------------------------------------- refreshes

    def _refresh_bias(self) -> None:
        version = self.circuit.bias_version
        if self._voltages is None or version != self._bias_version:
            self._voltages = self.model.system.cached_source_voltages()
            self._bias_version = version
            self._memo.clear()

    def _refresh_offsets(self, state: SimulationState) -> None:
        version = self.circuit.charge_version
        trap_state_changed = (bool(self.traps)
                              and state.trap_occupancy != self._trap_snapshot)
        if self._offsets is None or version != self._offsets_version \
                or trap_state_changed:
            if version != self._offsets_version:
                # A trap flip alone keeps the memo: it is keyed by the trap
                # occupation as well.
                self._memo.clear()
            offsets = np.array(self.model.system.cached_offset_charges())
            if self.traps:
                island_index = self.model.island_index
                bits = 0
                for position, trap in enumerate(self.traps):
                    if state.trap_occupancy.get(trap.name, False):
                        offsets[island_index(trap.island)] += trap.coupling
                        bits |= 1 << position
                self._trap_snapshot = dict(state.trap_occupancy)
                self._trap_bits = bits
            self._offsets = offsets
            self._offsets_version = version

    def _next_exponential(self) -> float:
        position = self._exp_position
        if position >= self._exp_buffer.size:
            self._exp_buffer = self.kernel.rng.standard_exponential(
                self.kernel._random_block)
            position = 0
        self._exp_position = position + 1
        return float(self._exp_buffer[position])

    def _next_uniform(self) -> float:
        position = self._uniform_position
        if position >= self._uniform_buffer.size:
            self._uniform_buffer = self.kernel.rng.random(
                self.kernel._random_block)
            position = 0
        self._uniform_position = position + 1
        return float(self._uniform_buffer[position])

    # --------------------------------------------------------------- rates

    def effective_offsets(self, state: SimulationState) -> np.ndarray:
        """Island offset charges including the occupied traps' couplings."""
        self._refresh_bias()
        self._refresh_offsets(state)
        return self._offsets.copy()

    def _exact_phi(self, electrons: np.ndarray) -> np.ndarray:
        """``C^-1 (q + B V)`` as the kernel's exact solve writes it."""
        self._entries_since_resync = 0
        system = self.model.system
        charges = -np.asarray(electrons, dtype=float) * E_CHARGE \
            + self._offsets
        bias = np.matmul(system.coupling, self._voltages[..., None])[..., 0]
        return np.matmul(system.inverse, (charges + bias)[..., None])[..., 0]

    def _rates_from_phi(self, phi: np.ndarray,
                        state: SimulationState) -> np.ndarray:
        """Rate table (tunnel | co-tunnel | trap) of one configuration."""
        columns = []
        if self._n_tunnel:
            delta_f = self._table.delta_f(phi, self._voltages)
            columns.append(orthodox_rate_vec(delta_f, self._table.resistance,
                                             self.kernel.temperature))
        if self._cot_table is not None:
            total, first, second = self._cot_table.channel_energies(delta_f)
            columns.append(cotunneling_rate_vec(
                total, first, second, self._cot_table.resistance_1,
                self._cot_table.resistance_2, self.kernel.temperature))
        if self.traps:
            occupied = np.array([state.trap_occupancy.get(trap.name, False)
                                 for trap in self.traps], dtype=bool)
            columns.append(np.where(occupied, self._emission_rates,
                                    self._capture_rates))
        if not columns:
            return np.empty(0)
        return np.concatenate(columns)

    def _compute_rates(self, state: SimulationState) -> np.ndarray:
        """Full rate evaluation from an exact potential solve."""
        self._refresh_bias()
        self._refresh_offsets(state)
        return self._rates_from_phi(self._exact_phi(state.electrons), state)

    def candidate_rates(self, state: SimulationState
                        ) -> Tuple[List[Candidate], np.ndarray]:
        """Every candidate with a positive rate (traps always) and its rate."""
        rates = self._compute_rates(state)
        candidates: List[Candidate] = []
        kept: List[float] = []
        for index in range(self._n_moves):
            if rates[index] > 0.0:
                candidates.append(self._moves[index])
                kept.append(rates[index])
        for position, trap in enumerate(self.traps):
            occupied = state.trap_occupancy.get(trap.name, False)
            candidates.append(self._emissions[position] if occupied
                              else self._captures[position])
            kept.append(rates[self._n_moves + position])
        return candidates, np.array(kept, dtype=float)

    # --------------------------------------------------------------- memo

    def _key(self, electrons: np.ndarray):
        key = electrons.tobytes()
        return (key, self._trap_bits) if self.traps else key

    def _store(self, key, entry: _Entry) -> None:
        if len(self._memo) >= self.kernel._rate_cache_limit:
            self._memo.clear()
        self._memo[key] = entry

    def _build_entry(self, key, electrons: np.ndarray,
                     phi: Optional[np.ndarray],
                     state: SimulationState) -> _Entry:
        if phi is None:
            phi = self._exact_phi(electrons)
        rates = self._rates_from_phi(phi, state)
        cumulative = rates.cumsum()
        if not rates.size:
            total, last = 0.0, -1
        else:
            total = float(cumulative[-1])
            positive = rates > 0.0
            last = rates.size - 1 if positive.all() \
                else int((positive * self._positions).max()) - 1
        entry = _Entry(electrons, phi, cumulative, total, last, self._n_moves)
        self._store(key, entry)
        return entry

    def _descend(self, parent: _Entry, index: int,
                 state: SimulationState) -> _Entry:
        electrons = parent.electrons + self._delta_n[index]
        key = self._key(electrons)
        existing = self._memo.get(key)
        if existing is not None:
            return existing
        if self._entries_since_resync >= self.kernel.resync_interval:
            return self._build_entry(key, electrons, None, state)
        self._entries_since_resync += 1
        return self._build_entry(key, electrons,
                                 parent.phi + self._delta_phi[index], state)

    # --------------------------------------------------------------- steps

    def step(self, state: SimulationState,
             max_waiting_time: Optional[float] = None) -> Optional[KernelStep]:
        """Execute one kinetic Monte-Carlo step in place.

        Returns ``None`` when no event has a positive rate or when the drawn
        waiting time exceeds ``max_waiting_time`` (the state then only
        advances in time, by ``max_waiting_time``).
        """
        if self._voltages is None \
                or self.circuit.bias_version != self._bias_version:
            self._refresh_bias()
        if self._offsets is None \
                or self.circuit.charge_version != self._offsets_version \
                or (self.traps
                    and state.trap_occupancy != self._trap_snapshot):
            self._refresh_offsets(state)
        key = self._key(state.electrons)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._build_entry(
                key, np.array(state.electrons, dtype=np.int64), None, state)
        total_rate = entry.total
        if total_rate <= 0.0:
            if max_waiting_time is not None:
                state.time += max_waiting_time
            return None
        waiting = self._next_exponential() / total_rate
        if max_waiting_time is not None and waiting > max_waiting_time:
            state.time += max_waiting_time
            return None
        index = entry.cumulative.searchsorted(
            self._next_uniform() * total_rate, side="right")
        if index > entry.last_selectable:
            index = entry.last_selectable
        state.time += waiting
        if index < self._n_moves:
            successor = entry.successors[index]
            if successor is None:
                successor = entry.successors[index] = self._descend(
                    entry, index, state)
            state.electrons = successor.electrons.copy()
            transfers = state.electron_transfers
            for name, direction in self._transfers[index]:
                transfers[name] += direction
            chosen = self._moves[index]
        else:
            position = index - self._n_moves
            occupied = state.trap_occupancy.get(self.traps[position].name,
                                                False)
            chosen = self._emissions[position] if occupied \
                else self._captures[position]
            apply_candidate(chosen, state, self.model)
        state.event_count += 1
        return KernelStep(waiting_time=waiting, candidate=chosen,
                          total_rate=total_rate)

    # ---------------------------------------------------------------- runs

    def new_state(self, electrons=None) -> SimulationState:
        return initial_state(self.circuit, self.model,
                             None if electrons is None
                             else np.asarray(electrons, dtype=np.int64))

    def run(self, max_events: Optional[int] = None,
            duration: Optional[float] = None,
            state: Optional[SimulationState] = None,
            record_events: bool = False,
            occupation: Optional[OccupationStatistics] = None
            ) -> TrajectoryResult:
        """``MonteCarloSimulator.run`` on the step loop, one step per event."""
        if max_events is None and duration is None:
            raise SimulationError("specify max_events and/or duration")
        if state is None:
            state = self.new_state()
        start_time = state.time
        start_events = state.event_count
        records: List[EventRecord] = []
        trap_flips = 0
        stall_strikes = 0
        track_occupation = occupation is not None
        while True:
            if max_events is not None \
                    and state.event_count - start_events >= max_events:
                break
            if duration is not None and state.time - start_time >= duration:
                break
            remaining = None
            if duration is not None:
                remaining = duration - (state.time - start_time)
            if track_occupation:
                previous_electrons = state.electron_tuple()
                previous_time = state.time
            step = self.step(state, max_waiting_time=remaining)
            if track_occupation:
                occupation.record(previous_electrons,
                                  state.time - previous_time)
            if step is None:
                if duration is not None \
                        and state.time - start_time >= duration:
                    break
                stall_strikes += 1
                if stall_strikes > 3:
                    # Blockaded at T = 0 with no time budget left to burn.
                    break
                continue
            stall_strikes = 0
            if isinstance(step.candidate, TrapCandidate):
                trap_flips += 1
            if record_events:
                records.append(EventRecord(time=state.time,
                                           label=step.candidate.label,
                                           electrons=state.electron_tuple()))
        return TrajectoryResult(
            duration=state.time - start_time,
            event_count=state.event_count - start_events,
            electron_transfers=dict(state.electron_transfers),
            final_electrons=state.electron_tuple(),
            records=records,
            trap_flips=trap_flips,
        )

    def phases(self, state: SimulationState, schedule,
               duration: Optional[float] = None, sweep=None) -> PhaseRecord:
        """``MonteCarloSimulator._run_phases`` of a trajectory, phase by phase.

        A sweep (the simulator's ``_SweepAxis``) sets each point's bias on
        the circuit (the caller restores it) and zeroes the clock; a cold
        one starts each point after the first from a fresh state at that
        point's row of ``sweep.starts`` (its electrons; a trap starts in
        its more probable state).
        """
        points = 1 if sweep is None else len(sweep.values)
        record = PhaseRecord(schedule, 1, len(self._junctions), points)
        islands = self.model.island_count
        for point in range(points):
            if sweep is not None:
                self.circuit.set_source_voltage(sweep.source,
                                                float(sweep.values[point]))
                if point and sweep.starts is not None:
                    state = self.new_state(sweep.starts[point][:islands])
                state.time = 0.0
            start_events = state.event_count
            start_transfers = [state.electron_transfers[name]
                               for name in self._junctions]
            record.store(0, state.time, 0, 0.0, point)
            for phase, budget in enumerate(schedule):
                self.run(int(budget), duration, state)
                tallies = state.electron_transfers
                record.store(phase + 1, state.time,
                             state.event_count - start_events,
                             [tallies[name] - start for name, start
                              in zip(self._junctions, start_transfers)],
                             point)
        return record


def apply_candidate(candidate: Candidate, state: SimulationState,
                    model) -> None:
    """Execute ``candidate`` on ``state``: its electrons, transfers or trap."""
    if isinstance(candidate, TrapCandidate):
        state.trap_occupancy[candidate.trap.name] = candidate.capture
        return
    events = (candidate.event,) if isinstance(candidate, TunnelCandidate) \
        else (candidate.first, candidate.second)
    for event in events:
        state.electrons = model.apply_event(state.electrons, event)
        state.electron_transfers[event.junction.name] += event.direction


def candidate_rates_reference(kernel: MonteCarloKernel, state
                              ) -> Tuple[List[Candidate], np.ndarray]:
    """All candidates with a positive rate (traps always), scalar-evaluated."""
    model = kernel.model
    offsets = np.array(model.system.offset_charge_vector())
    island_index = model.island_index
    for trap in kernel.traps:
        if state.trap_occupancy.get(trap.name, False):
            offsets[island_index(trap.island)] += trap.coupling
    voltages = model.system.source_voltage_vector()
    potentials = model.island_potentials(state.electrons, voltages, offsets)
    candidates: List[Candidate] = []
    rates: List[float] = []

    for candidate in kernel.tunnel_candidates:
        delta_f = model.free_energy_change_from_potentials(
            potentials, candidate.event, voltages)
        rate = orthodox_rate(delta_f, candidate.event.junction.resistance,
                             kernel.temperature)
        if rate > 0.0:
            candidates.append(candidate)
            rates.append(rate)

    for candidate in kernel.cotunnel_candidates:
        rate = _cotunnel_rate(kernel, state, candidate, voltages, offsets)
        if rate > 0.0:
            candidates.append(candidate)
            rates.append(rate)

    for trap in kernel.traps:
        occupied = state.trap_occupancy.get(trap.name, False)
        if occupied:
            candidates.append(TrapCandidate(trap, capture=False))
            rates.append(1.0 / trap.emission_time)
        else:
            candidates.append(TrapCandidate(trap, capture=True))
            rates.append(1.0 / trap.capture_time)

    return candidates, np.array(rates, dtype=float)


def _cotunnel_rate(kernel: MonteCarloKernel, state,
                   candidate: CotunnelCandidate, voltages: np.ndarray,
                   offsets: np.ndarray) -> float:
    model = kernel.model
    first_cost = model.free_energy_change(state.electrons, candidate.first,
                                          voltages, offsets)
    intermediate = model.apply_event(state.electrons, candidate.first)
    second_from_intermediate = model.free_energy_change(
        intermediate, candidate.second, voltages, offsets)
    total = first_cost + second_from_intermediate
    # Cost of the opposite ordering (second event first) as the other
    # virtual state energy.
    second_first_cost = model.free_energy_change(state.electrons,
                                                 candidate.second,
                                                 voltages, offsets)
    return cotunneling_rate(
        total,
        intermediate_energy_1=first_cost,
        intermediate_energy_2=second_first_cost,
        resistance_1=candidate.first.junction.resistance,
        resistance_2=candidate.second.junction.resistance,
        temperature=kernel.temperature,
    )


def step_reference(kernel: MonteCarloKernel, state,
                   max_waiting_time: Optional[float] = None
                   ) -> Optional[KernelStep]:
    """One scalar step driven by :func:`candidate_rates_reference`."""
    candidates, rates = candidate_rates_reference(kernel, state)
    total_rate = float(rates.sum()) if rates.size else 0.0
    if total_rate <= 0.0:
        if max_waiting_time is not None:
            state.time += max_waiting_time
        return None

    waiting = float(kernel.rng.exponential(1.0 / total_rate))
    if max_waiting_time is not None and waiting > max_waiting_time:
        state.time += max_waiting_time
        return None

    threshold = kernel.rng.uniform(0.0, total_rate)
    cumulative = np.cumsum(rates)
    index = int(np.searchsorted(cumulative, threshold, side="right"))
    index = min(index, len(candidates) - 1)
    chosen = candidates[index]
    state.time += waiting
    apply_candidate(chosen, state, kernel.model)
    state.event_count += 1
    return KernelStep(waiting_time=waiting, candidate=chosen,
                      total_rate=total_rate)


class ReferenceStepLoop(StepLoop):
    """The step loop with the scalar reference's rates and steps."""

    def candidate_rates(self, state):
        return candidate_rates_reference(self.kernel, state)

    def step(self, state, max_waiting_time=None):
        return step_reference(self.kernel, state, max_waiting_time)


class StepSimulator(MonteCarloSimulator):
    """A simulator whose trajectories run phase by phase on a step loop.

    ``run``, ``stationary_current`` and ``sweep_source`` all go through
    ``loop`` (a :class:`StepLoop` of type ``loop_type`` over the
    simulator's kernel); ensembles are not supported.
    """

    loop_type = StepLoop

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loop = self.loop_type(self.kernel)

    def run(self, max_events=None, duration=None, state=None,
            record_events=False, occupation=None):
        return self.loop.run(max_events, duration, state, record_events,
                             occupation)

    def _run_phases(self, state, schedule, duration=None, sweep=None):
        return self.loop.phases(state, schedule, duration, sweep)


class ReferenceSimulator(StepSimulator):
    """A simulator stepping the scalar reference kernel."""

    loop_type = ReferenceStepLoop


def reference_simulator(circuit, temperature: float, seed=None,
                        include_cotunneling: bool = False
                        ) -> MonteCarloSimulator:
    """A :class:`MonteCarloSimulator` stepping the scalar reference kernel.

    Its trajectories run phase by phase on the reference step (the advance
    loop would bypass it), so ``run``, ``stationary_current`` and
    ``sweep_source`` all exercise the reference; ensembles are not
    supported.
    """
    return ReferenceSimulator(circuit, temperature, seed=seed,
                              include_cotunneling=include_cotunneling)
