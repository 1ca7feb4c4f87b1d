"""Mutable simulation state of the kinetic Monte-Carlo engine.

Two state representations coexist:

* :class:`SimulationState` — one trajectory, the original scalar layout
  (electron vector, per-junction transfer dict).  It remains the reference
  representation; every ensemble observable can be projected back onto it.
* :class:`EnsembleState` — ``R`` independent replicas stored as 2-D arrays
  (``(R, islands)`` electron counts, ``(R, junctions)`` transfer tallies,
  per-replica clocks and event counters), the flat layout the kernel's
  advance loop writes in place
  (:meth:`~repro.montecarlo.kernel.MonteCarloKernel.run_phases`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..core.energy import EnergyModel
from ..errors import SimulationError


@dataclass
class SimulationState:
    """Everything that evolves during a kinetic Monte-Carlo run.

    Attributes
    ----------
    time:
        Simulated time in seconds.
    electrons:
        Electron-number vector over the circuit's islands.
    trap_occupancy:
        Occupation (True = holds an electron) of every charge trap, keyed by
        trap name.
    event_count:
        Total number of executed events (tunnelling + trap transitions).
    electron_transfers:
        Net number of electrons that crossed each junction from ``node_a`` to
        ``node_b`` (signed), keyed by junction name.  Dividing by the elapsed
        time and multiplying by ``-e`` yields the average conventional
        current.
    """

    time: float
    electrons: np.ndarray
    trap_occupancy: Dict[str, bool] = field(default_factory=dict)
    event_count: int = 0
    electron_transfers: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "SimulationState":
        """An independent snapshot of the state."""
        return SimulationState(
            time=self.time,
            electrons=self.electrons.copy(),
            trap_occupancy=dict(self.trap_occupancy),
            event_count=self.event_count,
            electron_transfers=dict(self.electron_transfers),
        )

    def electron_tuple(self) -> tuple:
        """The electron-number vector as a plain tuple of ints (hashable)."""
        return tuple(int(value) for value in self.electrons)


def resolve_junction_column(junction_names: Tuple[str, ...],
                            junction_name: str,
                            exception: type = SimulationError) -> int:
    """Column index of a junction in an ensemble transfer array.

    Shared by :class:`EnsembleState` and
    :class:`~repro.montecarlo.observables.EnsembleResult` so the lookup (and
    its error message) cannot drift between the two; ``exception`` lets each
    caller keep its conventional error type.
    """
    try:
        return junction_names.index(junction_name)
    except ValueError:
        raise exception(
            f"unknown junction {junction_name!r}; known: "
            f"{sorted(junction_names)}"
        ) from None


@dataclass
class EnsembleState:
    """``R`` independent Monte-Carlo replicas stored as batched arrays.

    All replicas share one circuit, one bias point and one kernel; only the
    stochastic degrees of freedom are replicated.  The layout is
    structure-of-arrays, which the advance loop updates in place:

    Attributes
    ----------
    times:
        ``(R,)`` simulated time of each replica, in seconds.
    electrons:
        ``(R, islands)`` electron-number vectors (``int64``).
    event_counts:
        ``(R,)`` executed events per replica.
    electron_transfers:
        ``(R, junctions)`` net signed electron counts through each junction,
        columns ordered as :attr:`junction_names`.
    junction_names:
        Junction order of the transfer columns (the circuit's junction
        order).
    cursor:
        Opaque per-kernel bookkeeping (configuration slots and memo-entry
        links) kept by :meth:`MonteCarloKernel.run_phases` between runs;
        reset to ``None`` by :meth:`copy`.
    """

    times: np.ndarray
    electrons: np.ndarray
    event_counts: np.ndarray
    electron_transfers: np.ndarray
    junction_names: Tuple[str, ...]
    cursor: Optional[object] = None

    @property
    def replica_count(self) -> int:
        """Number of replicas ``R``."""
        return int(self.times.size)

    def junction_column(self, junction_name: str) -> int:
        """Column index of a junction in :attr:`electron_transfers`."""
        return resolve_junction_column(self.junction_names, junction_name)

    def replica_state(self, replica: int) -> SimulationState:
        """Project one replica onto the scalar :class:`SimulationState` layout."""
        transfers = {name: float(self.electron_transfers[replica, column])
                     for column, name in enumerate(self.junction_names)}
        return SimulationState(
            time=float(self.times[replica]),
            electrons=self.electrons[replica].copy(),
            trap_occupancy={},
            event_count=int(self.event_counts[replica]),
            electron_transfers=transfers,
        )

    def copy(self) -> "EnsembleState":
        """An independent snapshot of every replica (kernel cursor dropped)."""
        return EnsembleState(
            times=self.times.copy(),
            electrons=self.electrons.copy(),
            event_counts=self.event_counts.copy(),
            electron_transfers=self.electron_transfers.copy(),
            junction_names=self.junction_names,
        )


def initial_ensemble(circuit: Circuit, model: Optional[EnergyModel] = None,
                     replicas: int = 1,
                     electrons: Optional[Sequence[int]] = None) -> EnsembleState:
    """Build the starting :class:`EnsembleState` of an ensemble run.

    Every replica starts from the same configuration — the zero-temperature
    ground state unless ``electrons`` is given as a single configuration
    (broadcast to all replicas) or as an ``(R, islands)`` array of
    per-replica configurations.  Circuits with charge traps are rejected:
    per-replica trap occupation would break the shared offset-charge vector
    the advance loop relies on (use the scalar path for telegraph-noise
    studies).
    """
    if replicas < 1:
        raise SimulationError(f"need at least 1 replica, got {replicas!r}")
    if circuit.charge_traps():
        raise SimulationError(
            "ensemble simulation does not support charge traps; "
            "use the scalar SimulationState path for telegraph noise"
        )
    if model is None:
        model = EnergyModel(circuit)
    if electrons is None:
        base = model.ground_state()
        stacked = np.tile(np.asarray(base, dtype=np.int64), (replicas, 1))
    else:
        array = np.asarray(electrons, dtype=np.int64)
        if array.ndim == 1:
            stacked = np.tile(array, (replicas, 1))
        elif array.ndim == 2 and array.shape[0] == replicas:
            stacked = array.copy()
        else:
            raise SimulationError(
                f"electrons must be a single configuration or an "
                f"({replicas}, islands) array, got shape {array.shape}"
            )
    if stacked.shape[1] != model.island_count:
        raise SimulationError(
            f"electron vectors must have length {model.island_count}, "
            f"got {stacked.shape[1]}"
        )
    junction_names = tuple(junction.name for junction in circuit.junctions())
    return EnsembleState(
        times=np.zeros(replicas, dtype=float),
        electrons=np.ascontiguousarray(stacked),
        event_counts=np.zeros(replicas, dtype=np.int64),
        electron_transfers=np.zeros((replicas, len(junction_names)),
                                    dtype=float),
        junction_names=junction_names,
    )


def initial_state(circuit: Circuit, model: Optional[EnergyModel] = None,
                  electrons: Optional[np.ndarray] = None) -> SimulationState:
    """Build the starting state of a simulation.

    Electron numbers default to the zero-temperature ground state; traps start
    in their more probable stationary state so short runs are not biased by an
    unlikely initial trap configuration.
    """
    if model is None:
        model = EnergyModel(circuit)
    if electrons is None:
        electrons = model.ground_state()
    trap_occupancy = {
        trap.name: trap.occupancy_probability >= 0.5
        for trap in circuit.charge_traps()
    }
    transfers = {junction.name: 0.0 for junction in circuit.junctions()}
    return SimulationState(
        time=0.0,
        electrons=np.array(electrons, dtype=np.int64),
        trap_occupancy=trap_occupancy,
        event_count=0,
        electron_transfers=transfers,
    )


__all__ = ["EnsembleState", "SimulationState", "initial_ensemble",
           "initial_state", "resolve_junction_column"]
