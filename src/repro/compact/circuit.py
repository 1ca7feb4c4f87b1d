"""The compact-circuit container used by the SPICE-like solver.

A :class:`CompactCircuit` is a collection of continuous-voltage nodes, ideal
voltage sources and devices implementing the ``terminals`` /
``terminal_currents`` protocol (resistors, current sources, MOSFETs, SETs,
varactors, ...).  The ground node ``"gnd"`` always exists and is fixed at
0 V.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..errors import CircuitError
from .elements import CapacitorDC, CurrentSource, Resistor
from .mosfet import MOSFET, MOSFETModel
from .set_model import SETDevice
from .varactor import JunctionVaractor, Varactor

#: Name of the ground node of every compact circuit.
GROUND = "gnd"


class CompactCircuit:
    """A circuit for the compact (continuous-voltage) solver.

    Examples
    --------
    The SET-MOS series stack at the heart of the paper's §3::

        circuit = CompactCircuit("setmos")
        circuit.add_voltage_source("VDD", "vdd", 1.0)
        circuit.add_voltage_source("VIN", "in", 0.2)
        circuit.add_mosfet("M1", drain="vdd", gate="bias", source="out",
                           model=MOSFETModel())
        circuit.add_voltage_source("VB", "bias", 0.6)
        circuit.add_set("X1", drain="out", gate="in", source="gnd",
                        model=AnalyticSETModel())
    """

    def __init__(self, name: str = "compact_circuit") -> None:
        if not name or not isinstance(name, str):
            raise CircuitError(f"circuit name must be a non-empty string, got {name!r}")
        self.name = name
        self._fixed: Dict[str, float] = {GROUND: 0.0}
        self._source_names: Dict[str, str] = {}
        self._free_nodes: List[str] = []
        self._devices: Dict[str, object] = {}

    # ------------------------------------------------------------------ nodes

    def add_node(self, name: str) -> str:
        """Declare a free (unknown-voltage) node; returns its name."""
        self._check_node_name(name)
        self._free_nodes.append(name)
        return name

    def _check_node_name(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise CircuitError(f"node name must be a non-empty string, got {name!r}")
        if name in self._fixed or name in self._free_nodes:
            raise CircuitError(f"node {name!r} already exists")

    def _ensure_node(self, name: str) -> None:
        if name not in self._fixed and name not in self._free_nodes:
            self._free_nodes.append(name)

    @property
    def free_nodes(self) -> List[str]:
        """Nodes whose voltages are solved for."""
        return list(self._free_nodes)

    @property
    def fixed_nodes(self) -> Dict[str, float]:
        """Nodes with imposed voltages (ground and voltage-source nodes)."""
        return dict(self._fixed)

    def all_nodes(self) -> List[str]:
        """Every node name (fixed first)."""
        return list(self._fixed) + list(self._free_nodes)

    # ---------------------------------------------------------------- sources

    def add_voltage_source(self, name: str, node: str, voltage: float) -> None:
        """Fix ``node`` at ``voltage`` volt (creates the node if necessary)."""
        if name in self._source_names:
            raise CircuitError(f"voltage source {name!r} already exists")
        if node in self._free_nodes:
            self._free_nodes.remove(node)
        if node == GROUND and voltage != 0.0:
            raise CircuitError("cannot bias the ground node away from 0 V")
        self._fixed[node] = float(voltage)
        self._source_names[name] = node

    def set_source_voltage(self, name_or_node: str, voltage: float) -> None:
        """Update a voltage source (by element name or node name)."""
        node = self._source_names.get(name_or_node, name_or_node)
        if node not in self._fixed:
            raise CircuitError(f"{name_or_node!r} is not a voltage source or fixed node")
        if node == GROUND and voltage != 0.0:
            raise CircuitError("cannot bias the ground node away from 0 V")
        self._fixed[node] = float(voltage)

    def source_voltage(self, name_or_node: str) -> float:
        """Current value of a voltage source (by element name or node name)."""
        node = self._source_names.get(name_or_node, name_or_node)
        try:
            return self._fixed[node]
        except KeyError:
            raise CircuitError(f"{name_or_node!r} is not a voltage source or fixed node") \
                from None

    # ---------------------------------------------------------------- devices

    def _add_device(self, device) -> None:
        name = device.name
        if name in self._devices:
            raise CircuitError(f"device {name!r} already exists")
        for terminal in device.terminals:
            self._ensure_node(terminal)
        self._devices[name] = device

    def add_resistor(self, name: str, node_a: str, node_b: str,
                     resistance: float) -> Resistor:
        """Add an ideal resistor."""
        device = Resistor(name, node_a, node_b, float(resistance))
        self._add_device(device)
        return device

    def add_current_source(self, name: str, node_a: str, node_b: str,
                           current: float) -> CurrentSource:
        """Add an ideal current source (current flows a -> b through it)."""
        device = CurrentSource(name, node_a, node_b, float(current))
        self._add_device(device)
        return device

    def add_capacitor(self, name: str, node_a: str, node_b: str,
                      capacitance: float) -> CapacitorDC:
        """Add a capacitor (open at DC)."""
        device = CapacitorDC(name, node_a, node_b, float(capacitance))
        self._add_device(device)
        return device

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   model: MOSFETModel) -> MOSFET:
        """Add a MOSFET instance."""
        device = MOSFET(name, drain, gate, source, model)
        self._add_device(device)
        return device

    def add_set(self, name: str, drain: str, gate: str, source: str,
                model) -> SETDevice:
        """Add a single-electron transistor instance (analytic or exact model)."""
        device = SETDevice(name, drain, gate, source, model)
        self._add_device(device)
        return device

    def add_varactor(self, name: str, node_a: str, node_b: str,
                     model: JunctionVaractor) -> Varactor:
        """Add a varactor (open at DC, voltage-dependent capacitance)."""
        device = Varactor(name, node_a, node_b, model)
        self._add_device(device)
        return device

    def add_device(self, device) -> None:
        """Add any object implementing the device protocol."""
        if not hasattr(device, "terminals") or not hasattr(device, "terminal_currents"):
            raise CircuitError(
                "a compact device must expose 'terminals' and 'terminal_currents'"
            )
        self._add_device(device)

    def device(self, name: str):
        """Look up a device by name."""
        try:
            return self._devices[name]
        except KeyError:
            raise CircuitError(
                f"unknown device {name!r}; known devices: {sorted(self._devices)}"
            ) from None

    def devices(self) -> List[object]:
        """All devices in insertion order."""
        return list(self._devices.values())

    def replace_current_source(self, name: str, current: float) -> None:
        """Change the value of an existing current source."""
        device = self.device(name)
        if not isinstance(device, CurrentSource):
            raise CircuitError(f"{name!r} is not a current source")
        self._devices[name] = CurrentSource(name, device.node_a, device.node_b,
                                            float(current))

    # ------------------------------------------------------------- inspection

    def residual_currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        """Net current flowing out of every free node (KCL residuals)."""
        residuals = {node: 0.0 for node in self._free_nodes}
        for device in self._devices.values():
            currents = device.terminal_currents(voltages)
            for terminal, current in currents.items():
                if terminal in residuals:
                    residuals[terminal] += current
        return residuals

    def device_current(self, name: str, voltages: Mapping[str, float],
                       terminal: Optional[str] = None) -> float:
        """Current into a device from one terminal (default: first terminal)."""
        device = self.device(name)
        currents = device.terminal_currents(voltages)
        if terminal is None:
            terminal = device.terminals[0]
        if terminal not in currents:
            raise CircuitError(
                f"device {name!r} has no terminal {terminal!r}; "
                f"terminals: {device.terminals}"
            )
        return currents[terminal]

    def __len__(self) -> int:
        return len(self._devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompactCircuit({self.name!r}, free_nodes={len(self._free_nodes)}, "
                f"devices={len(self._devices)})")


__all__ = ["CompactCircuit", "GROUND"]
