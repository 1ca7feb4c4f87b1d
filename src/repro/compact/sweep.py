"""DC sweeps and quasi-static transient analysis for compact circuits.

``dc_sweep`` is the work-horse behind the hybrid SET-MOS experiments
(quantizer transfer curves, RNG operating points): it steps a voltage source,
re-solves the operating point (warm-starting Newton from the previous point to
follow the same branch) and records the requested node voltages and device
currents.

``quasi_static_transient`` drives time-dependent inputs (for example the
random-telegraph offset charge of the RNG) under the assumption that the
circuit settles much faster than the inputs move — which is excellent for
nanosecond-settling circuits driven by microsecond-scale noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import SolverError
from .circuit import CompactCircuit
from .solver import DCSolver


@dataclass
class SweepResult:
    """Result of a DC sweep.

    Attributes
    ----------
    sweep_values:
        The swept source values, in volt.
    node_voltages:
        Mapping node name -> array of voltages (one per sweep point).
    device_currents:
        Mapping device name -> array of first-terminal currents.
    """

    sweep_values: np.ndarray
    node_voltages: Dict[str, np.ndarray] = field(default_factory=dict)
    device_currents: Dict[str, np.ndarray] = field(default_factory=dict)

    def voltage(self, node: str) -> np.ndarray:
        """Recorded voltage trace of a node."""
        try:
            return self.node_voltages[node]
        except KeyError:
            raise SolverError(
                f"node {node!r} was not recorded; recorded nodes: "
                f"{sorted(self.node_voltages)}"
            ) from None

    def current(self, device: str) -> np.ndarray:
        """Recorded current trace of a device."""
        try:
            return self.device_currents[device]
        except KeyError:
            raise SolverError(
                f"device {device!r} was not recorded; recorded devices: "
                f"{sorted(self.device_currents)}"
            ) from None


def dc_sweep(circuit: CompactCircuit, source: str, values: Sequence[float],
             record_nodes: Optional[Sequence[str]] = None,
             record_devices: Optional[Sequence[str]] = None,
             solver: Optional[DCSolver] = None) -> SweepResult:
    """Sweep a voltage source and record node voltages / device currents.

    Parameters
    ----------
    circuit:
        The compact circuit (its source value is restored afterwards).
    source:
        Voltage-source name (or fixed-node name) to sweep.
    values:
        Source values in volt.
    record_nodes:
        Node names whose voltages are recorded (default: all free nodes).
    record_devices:
        Device names whose first-terminal current is recorded.
    solver:
        Optional pre-configured :class:`DCSolver`.
    """
    solver = solver or DCSolver(circuit)
    record_nodes = list(record_nodes) if record_nodes is not None \
        else circuit.free_nodes
    record_devices = list(record_devices or [])

    original = circuit.source_voltage(source)
    voltages_out: Dict[str, List[float]] = {node: [] for node in record_nodes}
    currents_out: Dict[str, List[float]] = {device: [] for device in record_devices}
    previous: Optional[Mapping[str, float]] = None
    try:
        for value in values:
            circuit.set_source_voltage(source, float(value))
            solution = solver.solve(initial_guess=previous)
            previous = solution.voltages
            for node in record_nodes:
                voltages_out[node].append(solution.voltage(node))
            for device in record_devices:
                currents_out[device].append(
                    circuit.device_current(device, solution.voltages))
    finally:
        circuit.set_source_voltage(source, original)

    return SweepResult(
        sweep_values=np.asarray(values, dtype=float),
        node_voltages={node: np.array(trace) for node, trace in voltages_out.items()},
        device_currents={device: np.array(trace)
                         for device, trace in currents_out.items()},
    )


@dataclass
class TransientResult:
    """Result of a quasi-static transient analysis."""

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray] = field(default_factory=dict)
    device_currents: Dict[str, np.ndarray] = field(default_factory=dict)

    def voltage(self, node: str) -> np.ndarray:
        """Recorded voltage trace of a node."""
        try:
            return self.node_voltages[node]
        except KeyError:
            raise SolverError(
                f"node {node!r} was not recorded; recorded nodes: "
                f"{sorted(self.node_voltages)}"
            ) from None

    def current(self, device: str) -> np.ndarray:
        """Recorded current trace of a device."""
        try:
            return self.device_currents[device]
        except KeyError:
            raise SolverError(
                f"device {device!r} was not recorded; recorded devices: "
                f"{sorted(self.device_currents)}"
            ) from None


def quasi_static_transient(circuit: CompactCircuit, times: Sequence[float],
                           update: Callable[[CompactCircuit, float], None],
                           record_nodes: Optional[Sequence[str]] = None,
                           record_devices: Optional[Sequence[str]] = None,
                           solver: Optional[DCSolver] = None) -> TransientResult:
    """Quasi-static transient: at each time step, update the circuit and re-solve.

    Parameters
    ----------
    circuit:
        The compact circuit.
    times:
        Time grid in seconds (only used to call ``update`` and label results;
        the circuit itself is solved statically at each point).
    update:
        Callback ``update(circuit, t)`` mutating sources/devices for time ``t``
        (e.g. applying the current value of a telegraph-noise waveform).
    record_nodes, record_devices, solver:
        As for :func:`dc_sweep`.
    """
    solver = solver or DCSolver(circuit)
    record_nodes = list(record_nodes) if record_nodes is not None \
        else circuit.free_nodes
    record_devices = list(record_devices or [])

    voltages_out: Dict[str, List[float]] = {node: [] for node in record_nodes}
    currents_out: Dict[str, List[float]] = {device: [] for device in record_devices}
    previous: Optional[Mapping[str, float]] = None
    for time in times:
        update(circuit, float(time))
        solution = solver.solve(initial_guess=previous)
        previous = solution.voltages
        for node in record_nodes:
            voltages_out[node].append(solution.voltage(node))
        for device in record_devices:
            currents_out[device].append(
                circuit.device_current(device, solution.voltages))

    return TransientResult(
        times=np.asarray(times, dtype=float),
        node_voltages={node: np.array(trace) for node, trace in voltages_out.items()},
        device_currents={device: np.array(trace)
                         for device, trace in currents_out.items()},
    )


__all__ = ["SweepResult", "TransientResult", "dc_sweep", "quasi_static_transient"]
