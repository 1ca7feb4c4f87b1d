"""Enumeration of co-tunnelling channels.

Inelastic co-tunnelling moves an electron coherently through two junctions
that share an island, even when both individual steps are forbidden by the
Coulomb blockade.  It dominates transport deep inside the blockade region and
is precisely the kind of "higher-order tunnelling effect" the paper notes is
missing from SPICE macro-models (§4).  The Monte-Carlo engine treats each
co-tunnelling channel as one composite event with the second-order rate of
:func:`repro.core.rates.cotunneling_rate`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..constants import E_CHARGE
from ..core.energy import EnergyModel
from .events import CotunnelCandidate


def enumerate_cotunnel_candidates(circuit: Circuit,
                                  model: EnergyModel) -> List[CotunnelCandidate]:
    """All ordered co-tunnelling channels of a circuit.

    A channel is an ordered pair of elementary events ``(first, second)``
    such that the first event deposits an electron on an island and the second
    event removes an electron from the *same* island through a *different*
    junction.  Both traversal directions of every junction pair are generated;
    energetically forbidden channels are simply assigned a zero rate at
    simulation time.
    """
    island_names = set(model.system.island_index)
    candidates: List[CotunnelCandidate] = []
    events = model.events()
    for first in events:
        target = first.target_node
        if target not in island_names:
            continue
        for second in events:
            if second.junction.name == first.junction.name:
                continue
            if second.source_node != target:
                continue
            candidates.append(CotunnelCandidate(first=first, second=second))
    return candidates


class CotunnelTable:
    """Precomputed index arrays that vectorize co-tunnelling rate evaluation.

    Every channel is an ordered pair of elementary events.  Because the
    elementary ``dF`` values of *all* events are already available as one
    vector (via :class:`~repro.core.energy.EventTable`), each channel's three
    energies reduce to gathers plus one precomputed cross term:

    * ``E1 = dF[first]`` — electron-first virtual state,
    * ``E2 = dF[second]`` — hole-first virtual state,
    * ``total = E1 + E2 + cross`` where
      ``cross = e (dphi_first[from2] - dphi_first[to2])`` corrects the second
      event's energy for the potential shift left by the first (island terms
      only; a source terminal contributes zero).

    ``delta_n``/``delta_phi`` are the composite update vectors of the channel.
    """

    def __init__(self, model: EnergyModel,
                 candidates: Sequence[CotunnelCandidate]) -> None:
        table = model.table
        index = {(event.junction.name, event.direction): k
                 for k, event in enumerate(table.events)}
        self.size = len(candidates)
        self.first_index = np.array(
            [index[(c.first.junction.name, c.first.direction)] for c in candidates],
            dtype=np.int64).reshape(self.size)
        self.second_index = np.array(
            [index[(c.second.junction.name, c.second.direction)] for c in candidates],
            dtype=np.int64).reshape(self.size)
        self.resistance_1 = table.resistance[self.first_index]
        self.resistance_2 = table.resistance[self.second_index]
        self.delta_n = table.delta_n[self.first_index] + table.delta_n[self.second_index]
        self.delta_phi = (table.delta_phi[self.first_index]
                          + table.delta_phi[self.second_index])

        cross = np.zeros(self.size)
        from_2 = table.from_island[self.second_index]
        to_2 = table.to_island[self.second_index]
        from_mask = from_2 >= 0
        to_mask = to_2 >= 0
        cross[from_mask] += E_CHARGE * table.delta_phi[
            self.first_index[from_mask], from_2[from_mask]]
        cross[to_mask] -= E_CHARGE * table.delta_phi[
            self.first_index[to_mask], to_2[to_mask]]
        self.cross = cross

    def channel_energies(self, delta_f: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(total, E1, E2)`` for every channel, given the elementary ``dF`` vector."""
        first = delta_f[..., self.first_index]
        second = delta_f[..., self.second_index]
        return first + second + self.cross, first, second


def intermediate_energies(model: EnergyModel, electrons, candidate: CotunnelCandidate,
                          voltages=None, offsets=None) -> Tuple[float, float]:
    """Energy costs of the two virtual intermediate states of a channel.

    Returns ``(E1, E2)`` where ``E1`` is the cost of executing the *first*
    elementary event from the initial configuration (electron briefly on the
    island) and ``E2`` the cost of executing the *second* elementary event
    first (hole briefly on the island).  Both must be positive for the
    co-tunnelling picture to apply; the rate function returns zero otherwise.
    """
    first_cost = model.free_energy_change(electrons, candidate.first,
                                          voltages, offsets)
    second_cost = model.free_energy_change(electrons, candidate.second,
                                           voltages, offsets)
    return first_cost, second_cost


__all__ = ["CotunnelTable", "enumerate_cotunnel_candidates", "intermediate_energies"]
