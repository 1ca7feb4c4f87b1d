"""The scalar reference Monte-Carlo kernel, kept as a test oracle.

This is the original per-candidate implementation the vectorized kernel
replaced: every candidate is evaluated one at a time from freshly solved
island potentials, with no tables and no caching, and a step draws its
waiting time and selection straight from the generator.  The fast path must
agree with :func:`candidate_rates_reference` element for element; the
equivalence tests and ``benchmarks/bench_kernel_throughput.py`` (which
measures :class:`ReferenceKernel` as the baseline) import it from here.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core.rates import cotunneling_rate, orthodox_rate
from repro.montecarlo import MonteCarloKernel, MonteCarloSimulator
from repro.montecarlo.events import CotunnelCandidate, TrapCandidate
from repro.montecarlo.kernel import Candidate, KernelStep


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
    chosen.apply(state, kernel.model)
    state.event_count += 1
    return KernelStep(waiting_time=waiting, candidate=chosen,
                      total_rate=total_rate)


class ReferenceKernel(MonteCarloKernel):
    """A kernel whose rates and steps are the scalar reference's."""

    def candidate_rates(self, state):
        return candidate_rates_reference(self, state)

    def step(self, state, max_waiting_time=None):
        return step_reference(self, state, max_waiting_time)


def reference_simulator(circuit, temperature: float, seed=None,
                        include_cotunneling: bool = False
                        ) -> MonteCarloSimulator:
    """A :class:`MonteCarloSimulator` stepping the scalar reference kernel.

    Its trajectories run phase by phase on the reference ``step`` (the
    advance loop would bypass it), so ``run``, ``stationary_current`` and
    ``sweep_source`` all exercise the reference; ensembles are not
    supported.
    """
    simulator = MonteCarloSimulator(circuit, temperature, seed=seed,
                                    include_cotunneling=include_cotunneling)
    simulator.kernel = ReferenceKernel(circuit, temperature, simulator.rng,
                                       include_cotunneling=include_cotunneling)
    simulator._run_phases = simulator._step_phases
    return simulator
