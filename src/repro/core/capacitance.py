"""Capacitance-matrix assembly for single-electron circuits.

The electrostatics of an N-island circuit is fully described by

* the Maxwell capacitance matrix ``C`` (N x N) between islands,
* the coupling matrix ``B`` (N x S) between islands and fixed-potential
  (source) nodes, and
* the list of individual capacitive elements (needed to evaluate the energy
  actually stored in every capacitor).

:class:`CapacitanceSystem` assembles all three from a :class:`~repro.circuit.Circuit`
and exposes the island potentials ``phi = C^-1 (q + B V)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import SolverError


@dataclass(frozen=True)
class CapacitiveBranch:
    """A single capacitance between two nodes, flattened for fast energy sums.

    ``index_a``/``index_b`` are island indices (or ``-1`` when the terminal is
    a fixed-potential node, in which case ``voltage_a``/``voltage_b`` hold the
    terminal potential).
    """

    name: str
    capacitance: float
    index_a: int
    index_b: int
    voltage_a: float
    voltage_b: float


class CapacitanceSystem:
    """Electrostatic description of a circuit's islands.

    Parameters
    ----------
    circuit:
        The circuit to analyse.  The system snapshots the circuit's topology
        and capacitance values; *source voltages are read dynamically* from
        the circuit on each evaluation so a gate sweep does not need to
        rebuild the matrices.

    Raises
    ------
    SolverError
        If the island capacitance matrix is singular (an island with no
        capacitive connection at all).
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.islands = circuit.islands()
        self.island_names: List[str] = [node.name for node in self.islands]
        self.island_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.island_names)
        }
        self.source_names: List[str] = [node.name for node in circuit.source_nodes()]
        self.source_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.source_names)
        }

        n_islands = len(self.island_names)
        n_sources = len(self.source_names)
        self.maxwell = np.zeros((n_islands, n_islands))
        self.coupling = np.zeros((n_islands, n_sources))

        for element in circuit.capacitive_elements():
            capacitance = element.capacitance  # type: ignore[union-attr]
            node_a = element.node_a  # type: ignore[union-attr]
            node_b = element.node_b  # type: ignore[union-attr]
            a_is_island = node_a in self.island_index
            b_is_island = node_b in self.island_index
            if a_is_island:
                i = self.island_index[node_a]
                self.maxwell[i, i] += capacitance
            if b_is_island:
                j = self.island_index[node_b]
                self.maxwell[j, j] += capacitance
            if a_is_island and b_is_island:
                i = self.island_index[node_a]
                j = self.island_index[node_b]
                self.maxwell[i, j] -= capacitance
                self.maxwell[j, i] -= capacitance
            elif a_is_island and not b_is_island:
                i = self.island_index[node_a]
                s = self.source_index[node_b]
                self.coupling[i, s] += capacitance
            elif b_is_island and not a_is_island:
                j = self.island_index[node_b]
                s = self.source_index[node_a]
                self.coupling[j, s] += capacitance
            # capacitor between two source nodes: irrelevant for islands

        if n_islands:
            try:
                self.inverse = np.linalg.inv(self.maxwell)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "island capacitance matrix is singular; every island needs at "
                    "least one capacitive connection"
                ) from exc
        else:
            self.inverse = np.zeros((0, 0))

        self.branches: List[CapacitiveBranch] = []
        for element in circuit.capacitive_elements():
            self.branches.append(self._make_branch(element))

        #: Offset charges per island in coulomb, refreshed via
        #: :meth:`offset_charge_vector`.
        self._static_offsets = np.array(
            [node.offset_charge for node in self.islands], dtype=float
        )

        # Version-keyed caches of the bias and offset vectors.  The circuit
        # bumps ``bias_version``/``charge_version`` whenever a source voltage
        # or offset charge changes, so rebuilding these vectors (a Python loop
        # over nodes) happens once per sweep point instead of once per call.
        self._voltage_cache: np.ndarray | None = None
        self._voltage_cache_version = -1
        self._offset_cache: np.ndarray | None = None
        self._offset_cache_version = -1

    # ------------------------------------------------------------------ build

    def _make_branch(self, element) -> CapacitiveBranch:
        node_a = element.node_a
        node_b = element.node_b
        index_a = self.island_index.get(node_a, -1)
        index_b = self.island_index.get(node_b, -1)
        voltage_a = 0.0 if index_a >= 0 else self.circuit.node(node_a).voltage
        voltage_b = 0.0 if index_b >= 0 else self.circuit.node(node_b).voltage
        return CapacitiveBranch(element.name, element.capacitance, index_a, index_b,
                                voltage_a, voltage_b)

    # -------------------------------------------------------------- interface

    @property
    def island_count(self) -> int:
        """Number of islands in the system."""
        return len(self.island_names)

    def total_capacitance(self, island: str) -> float:
        """Total capacitance ``C_sigma`` attached to ``island`` in farad."""
        return float(self.maxwell[self.island_index[island], self.island_index[island]])

    def source_voltage_vector(self) -> np.ndarray:
        """Current source-node voltages as a vector aligned with ``coupling``."""
        return self.cached_source_voltages().copy()

    def cached_source_voltages(self) -> np.ndarray:
        """Shared read-only source-voltage vector (no per-call allocation).

        Refreshed lazily whenever the circuit's ``bias_version`` changes; hot
        paths that evaluate it every step should prefer this over
        :meth:`source_voltage_vector`, which returns a private copy.
        """
        version = getattr(self.circuit, "bias_version", None)
        if self._voltage_cache is None or version is None \
                or version != self._voltage_cache_version:
            self._voltage_cache = np.array(
                [self.circuit.node(name).voltage for name in self.source_names],
                dtype=float,
            )
            self._voltage_cache.flags.writeable = False
            self._voltage_cache_version = -1 if version is None else version
        return self._voltage_cache

    def offset_charge_vector(self) -> np.ndarray:
        """Current island offset charges (coulomb) as a vector."""
        return self.cached_offset_charges().copy()

    def cached_offset_charges(self) -> np.ndarray:
        """Shared read-only offset-charge vector (no per-call allocation)."""
        version = getattr(self.circuit, "charge_version", None)
        if self._offset_cache is None or version is None \
                or version != self._offset_cache_version:
            self._offset_cache = np.array(
                [self.circuit.node(name).offset_charge for name in self.island_names],
                dtype=float,
            )
            self._offset_cache.flags.writeable = False
            self._offset_cache_version = -1 if version is None else version
        return self._offset_cache

    def external_charge(self, voltages: np.ndarray | None = None) -> np.ndarray:
        """Charge induced on each island by the source nodes, ``B @ V``."""
        if voltages is None:
            voltages = self.source_voltage_vector()
        if self.island_count == 0:
            return np.zeros(0)
        return self.coupling @ voltages

    def island_potentials(self, island_charges: np.ndarray,
                          voltages: np.ndarray | None = None) -> np.ndarray:
        """Island potentials ``phi = C^-1 (q + B V)`` in volt.

        Parameters
        ----------
        island_charges:
            Total free charge on each island (``-n e + q0``) in coulomb.
        voltages:
            Source-node voltages; defaults to the circuit's current values.
        """
        if self.island_count == 0:
            return np.zeros(0)
        total = np.asarray(island_charges, dtype=float) + self.external_charge(voltages)
        return self.inverse @ total

    def branch_voltages(self, potentials: np.ndarray,
                        voltages: np.ndarray | None = None) -> np.ndarray:
        """Voltage across each capacitive branch for given island potentials."""
        if voltages is None:
            source_lookup = {name: self.circuit.node(name).voltage
                             for name in self.source_names}
        else:
            source_lookup = dict(zip(self.source_names, voltages))
        values = np.empty(len(self.branches))
        for k, branch in enumerate(self.branches):
            va = potentials[branch.index_a] if branch.index_a >= 0 else \
                source_lookup[self._branch_node_name(branch, "a")]
            vb = potentials[branch.index_b] if branch.index_b >= 0 else \
                source_lookup[self._branch_node_name(branch, "b")]
            values[k] = va - vb
        return values

    def _branch_node_name(self, branch: CapacitiveBranch, side: str) -> str:
        element = self.circuit.element(branch.name)
        return element.node_a if side == "a" else element.node_b  # type: ignore

    def stored_energy(self, island_charges: np.ndarray,
                      voltages: np.ndarray | None = None) -> float:
        """Total electrostatic energy stored in every capacitor, in joule."""
        potentials = self.island_potentials(island_charges, voltages)
        if voltages is None:
            voltages = self.source_voltage_vector()
        source_lookup = dict(zip(self.source_names, voltages))
        energy = 0.0
        for branch in self.branches:
            element = self.circuit.element(branch.name)
            node_a = element.node_a  # type: ignore[union-attr]
            node_b = element.node_b  # type: ignore[union-attr]
            va = potentials[branch.index_a] if branch.index_a >= 0 else source_lookup[node_a]
            vb = potentials[branch.index_b] if branch.index_b >= 0 else source_lookup[node_b]
            energy += 0.5 * branch.capacitance * (va - vb) ** 2
        return float(energy)

    def effective_gate_coupling(self, island: str, source: str) -> float:
        """Capacitance between ``island`` and the fixed-potential node ``source``.

        This is the ``C_g`` that sets the Coulomb-oscillation period
        ``Delta V_g = e / C_g``.
        """
        return float(self.coupling[self.island_index[island], self.source_index[source]])

    def charging_energy(self, island: str) -> float:
        """Single-electron charging energy ``e^2 / (2 C_sigma)`` of an island."""
        from ..constants import charging_energy as _charging_energy

        return _charging_energy(self.total_capacitance(island))


__all__ = ["CapacitanceSystem", "CapacitiveBranch"]
