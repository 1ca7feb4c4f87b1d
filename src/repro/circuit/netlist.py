"""The :class:`Circuit` container: nodes plus elements.

A :class:`Circuit` is a purely *descriptive* object — it knows nothing about
simulation.  The Monte-Carlo simulator, the master-equation solver and the
analysis helpers all consume the same :class:`Circuit` instance, which is how
the package realises the paper's call for "a combination of both simulator
types": one netlist, several engines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..constants import E_CHARGE
from ..errors import CircuitError
from .elements import Capacitor, ChargeTrap, Element, TunnelJunction, VoltageSource
from .nodes import GROUND_NAME, Node, NodeKind, make_ground


class Circuit:
    """A single-electron circuit netlist.

    The ground node (named ``"gnd"``) always exists.  Islands and voltage
    nodes are added explicitly or implicitly (adding a voltage source to an
    unknown node creates that node as a source node; junctions and capacitors
    require their terminals to exist already, to catch typos early).

    Examples
    --------
    A single-electron transistor::

        circuit = Circuit("set")
        circuit.add_island("island")
        circuit.add_voltage_source("VD", "drain", 1e-3)
        circuit.add_voltage_source("VG", "gate", 0.0)
        circuit.add_junction("J1", "drain", "island", capacitance=1e-18,
                             resistance=1e5)
        circuit.add_junction("J2", "island", "gnd", capacitance=1e-18,
                             resistance=1e5)
        circuit.add_capacitor("CG", "gate", "island", capacitance=2e-18)
    """

    def __init__(self, name: str = "circuit") -> None:
        if not name or not isinstance(name, str):
            raise CircuitError(f"circuit name must be a non-empty string, got {name!r}")
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._elements: Dict[str, Element] = {}
        #: Monotonic counter bumped whenever a source voltage changes.  The
        #: simulation engines key their cached source-voltage vectors on it so
        #: a gate sweep invalidates in O(1) without re-reading every node.
        self.bias_version: int = 0
        #: Monotonic counter bumped whenever an island offset charge changes.
        self.charge_version: int = 0
        ground = make_ground()
        self._nodes[ground.name] = ground

    # ------------------------------------------------------------------ nodes

    @property
    def ground(self) -> Node:
        """The ground node."""
        return self._nodes[GROUND_NAME]

    def add_island(self, name: str, offset_charge: float = 0.0) -> Node:
        """Add a Coulomb island.

        Parameters
        ----------
        name:
            Unique node name.
        offset_charge:
            Background (offset) charge in coulomb.
        """
        self._check_new_node_name(name)
        node = Node(name, NodeKind.ISLAND, offset_charge=offset_charge)
        self._nodes[name] = node
        self._reindex_islands()
        self.charge_version += 1
        return node

    def add_source_node(self, name: str, voltage: float = 0.0) -> Node:
        """Add a node whose potential is fixed (without a named source element)."""
        self._check_new_node_name(name)
        node = Node(name, NodeKind.SOURCE, voltage=float(voltage))
        self._nodes[name] = node
        self.bias_version += 1
        return node

    def _check_new_node_name(self, name: str) -> None:
        if name in self._nodes:
            raise CircuitError(f"node {name!r} already exists in circuit {self.name!r}")
        if name == GROUND_NAME:
            raise CircuitError("the ground node exists implicitly and cannot be re-added")

    def _reindex_islands(self) -> None:
        for index, island in enumerate(self.islands()):
            island.index = index

    def node(self, name: str) -> Node:
        """Return the node called ``name`` or raise :class:`CircuitError`."""
        try:
            return self._nodes[name]
        except KeyError:
            raise CircuitError(
                f"unknown node {name!r} in circuit {self.name!r}; "
                f"known nodes: {sorted(self._nodes)}"
            ) from None

    def has_node(self, name: str) -> bool:
        """Whether a node called ``name`` exists."""
        return name in self._nodes

    def nodes(self) -> List[Node]:
        """All nodes, ground first, then in insertion order."""
        return list(self._nodes.values())

    def islands(self) -> List[Node]:
        """All island nodes in insertion order."""
        return [node for node in self._nodes.values() if node.is_island]

    def source_nodes(self) -> List[Node]:
        """All fixed-potential nodes (including ground) in insertion order."""
        return [node for node in self._nodes.values() if node.is_source]

    @property
    def island_count(self) -> int:
        """Number of Coulomb islands."""
        return sum(1 for node in self._nodes.values() if node.is_island)

    # ----------------------------------------------------------- offset charge

    def set_offset_charge(self, island: str, offset_charge: float) -> None:
        """Set the background (offset) charge of an island, in coulomb."""
        node = self.node(island)
        if not node.is_island:
            raise CircuitError(
                f"offset charge can only be set on islands, {island!r} is a "
                f"{node.kind.value} node"
            )
        node.offset_charge = float(offset_charge)
        self.charge_version += 1

    def set_offset_charge_in_e(self, island: str, fraction: float) -> None:
        """Set the background charge of an island as a fraction of ``e``."""
        self.set_offset_charge(island, fraction * E_CHARGE)

    def offset_charges(self) -> Dict[str, float]:
        """Mapping island name -> offset charge in coulomb."""
        return {node.name: node.offset_charge for node in self.islands()}

    # --------------------------------------------------------------- elements

    def _add_element(self, element: Element) -> Element:
        if element.name in self._elements:
            raise CircuitError(
                f"element {element.name!r} already exists in circuit {self.name!r}"
            )
        self._elements[element.name] = element
        return element

    def add_junction(self, name: str, node_a: str, node_b: str,
                     capacitance: float, resistance: float) -> TunnelJunction:
        """Add a tunnel junction between two existing nodes."""
        self.node(node_a)
        self.node(node_b)
        junction = TunnelJunction(name, node_a, node_b, float(capacitance),
                                  float(resistance))
        self._add_element(junction)
        return junction

    def add_capacitor(self, name: str, node_a: str, node_b: str,
                      capacitance: float) -> Capacitor:
        """Add an ideal capacitor between two existing nodes."""
        self.node(node_a)
        self.node(node_b)
        capacitor = Capacitor(name, node_a, node_b, float(capacitance))
        self._add_element(capacitor)
        return capacitor

    def add_voltage_source(self, name: str, node: str, voltage: float) -> VoltageSource:
        """Add a voltage source; creates ``node`` as a source node if needed."""
        if not self.has_node(node):
            self.add_source_node(node, voltage)
        else:
            existing = self.node(node)
            if existing.is_island:
                raise CircuitError(
                    f"voltage source {name!r} cannot drive island {node!r}; "
                    "islands are only reachable through junctions and capacitors"
                )
            if existing.kind is NodeKind.GROUND and voltage != 0.0:
                raise CircuitError("cannot bias the ground node away from 0 V")
            existing.voltage = float(voltage)
            self.bias_version += 1
        source = VoltageSource(name, node, float(voltage))
        self._add_element(source)
        return source

    def add_charge_trap(self, name: str, island: str, coupling: float,
                        capture_time: float, emission_time: float) -> ChargeTrap:
        """Add a bistable charge trap coupled to an existing island."""
        node = self.node(island)
        if not node.is_island:
            raise CircuitError(
                f"charge trap {name!r} must couple to an island, {island!r} is a "
                f"{node.kind.value} node"
            )
        trap = ChargeTrap(name, island, float(coupling), float(capture_time),
                          float(emission_time))
        self._add_element(trap)
        return trap

    def source_node(self, name_or_node: str, voltage: float = 0.0) -> str:
        """The node :meth:`set_source_voltage` moves for ``name_or_node``.

        Raises :class:`CircuitError` where :meth:`set_source_voltage` would
        refuse to apply ``voltage``.
        """
        element = self._elements.get(name_or_node)
        if isinstance(element, VoltageSource):
            return element.node
        node = self.node(name_or_node)
        if not node.is_source:
            raise CircuitError(
                f"{name_or_node!r} is not a voltage source element or source node"
            )
        if node.kind is NodeKind.GROUND and voltage != 0.0:
            raise CircuitError("cannot bias the ground node away from 0 V")
        return node.name

    def set_source_voltage(self, name_or_node: str, voltage: float) -> None:
        """Update the voltage of a source element (by name) or source node.

        Sweeping a gate or drain voltage is the bread-and-butter operation of
        every experiment in the paper, so both the element name and the node
        name are accepted.
        """
        node_name = self.source_node(name_or_node, voltage)
        element = self._elements.get(name_or_node)
        if isinstance(element, VoltageSource):
            self._elements[name_or_node] = VoltageSource(element.name, node_name,
                                                         float(voltage))
            self._nodes[node_name].voltage = float(voltage)
            self.bias_version += 1
            return
        self._nodes[node_name].voltage = float(voltage)
        self.bias_version += 1
        for element_name, element in list(self._elements.items()):
            if isinstance(element, VoltageSource) and element.node == node_name:
                self._elements[element_name] = VoltageSource(element.name, element.node,
                                                             float(voltage))

    def element(self, name: str) -> Element:
        """Return the element called ``name`` or raise :class:`CircuitError`."""
        try:
            return self._elements[name]
        except KeyError:
            raise CircuitError(
                f"unknown element {name!r} in circuit {self.name!r}; "
                f"known elements: {sorted(self._elements)}"
            ) from None

    def has_element(self, name: str) -> bool:
        """Whether an element called ``name`` exists."""
        return name in self._elements

    def elements(self) -> List[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    def junctions(self) -> List[TunnelJunction]:
        """All tunnel junctions in insertion order."""
        return [e for e in self._elements.values() if isinstance(e, TunnelJunction)]

    def capacitors(self) -> List[Capacitor]:
        """All ideal capacitors in insertion order."""
        return [e for e in self._elements.values() if isinstance(e, Capacitor)]

    def voltage_sources(self) -> List[VoltageSource]:
        """All voltage sources in insertion order."""
        return [e for e in self._elements.values() if isinstance(e, VoltageSource)]

    def charge_traps(self) -> List[ChargeTrap]:
        """All charge traps in insertion order."""
        return [e for e in self._elements.values() if isinstance(e, ChargeTrap)]

    def capacitive_elements(self) -> List[Element]:
        """All elements that contribute capacitance (junctions and capacitors)."""
        return [e for e in self._elements.values()
                if isinstance(e, (TunnelJunction, Capacitor))]

    # ------------------------------------------------------------- inspection

    def elements_at(self, node_name: str) -> List[Element]:
        """All junctions/capacitors with a terminal on ``node_name``."""
        self.node(node_name)
        attached: List[Element] = []
        for element in self._elements.values():
            if isinstance(element, (TunnelJunction, Capacitor)):
                if node_name in (element.node_a, element.node_b):
                    attached.append(element)
        return attached

    def total_capacitance(self, island: str) -> float:
        """Total capacitance attached to an island, in farad.

        This is the ``C_sigma`` that sets the charging energy ``e^2/(2 C_sigma)``
        and therefore the maximum operating temperature.
        """
        node = self.node(island)
        if not node.is_island:
            raise CircuitError(f"{island!r} is not an island")
        return sum(element.capacitance  # type: ignore[union-attr]
                   for element in self.elements_at(island))

    def source_voltages(self) -> Dict[str, float]:
        """Mapping source-node name -> voltage (includes ground at 0 V)."""
        return {node.name: node.voltage for node in self.source_nodes()}

    def bias_snapshot(self) -> Dict[str, float]:
        """Restorable snapshot of every non-ground source-node voltage.

        Sweep drivers take one snapshot before mutating the bias and hand it
        back to :meth:`restore_bias` in a ``finally`` block, so an exception
        anywhere in the sweep (including window rebuilds) cannot leave the
        circuit at a stray operating point.
        """
        return {node.name: node.voltage for node in self.source_nodes()
                if node.kind is not NodeKind.GROUND}

    def restore_bias(self, snapshot: Dict[str, float]) -> None:
        """Restore source-node voltages saved by :meth:`bias_snapshot`."""
        for node_name, voltage in snapshot.items():
            self.set_source_voltage(node_name, voltage)

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return an independent copy of the circuit."""
        clone = Circuit(name or self.name)
        for node in self._nodes.values():
            if node.kind is NodeKind.GROUND:
                continue
            if node.is_island:
                clone.add_island(node.name, offset_charge=node.offset_charge)
            else:
                clone.add_source_node(node.name, voltage=node.voltage)
        for element in self._elements.values():
            if isinstance(element, TunnelJunction):
                clone.add_junction(element.name, element.node_a, element.node_b,
                                   element.capacitance, element.resistance)
            elif isinstance(element, Capacitor):
                clone.add_capacitor(element.name, element.node_a, element.node_b,
                                    element.capacitance)
            elif isinstance(element, VoltageSource):
                clone.add_voltage_source(element.name, element.node, element.voltage)
            elif isinstance(element, ChargeTrap):
                clone.add_charge_trap(element.name, element.island, element.coupling,
                                      element.capture_time, element.emission_time)
        return clone

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Circuit({self.name!r}, islands={self.island_count}, "
                f"junctions={len(self.junctions())}, "
                f"capacitors={len(self.capacitors())}, "
                f"sources={len(self.voltage_sources())})")
