"""The single-electron transistor (SET) as a reusable device.

:class:`SETTransistor` bundles the device parameters the paper talks about —
junction capacitances and resistances, gate capacitance, background charge —
and knows how to build the corresponding :class:`~repro.circuit.Circuit`
(standard node names ``drain``, ``gate``, ``dot``, plus ground as the source
electrode) and how to compute its characteristic figures of merit:

* Coulomb-oscillation gate period ``e / C_g`` (the background-charge-immune
  quantity the paper builds its logic proposal on),
* Coulomb-blockade voltage scale ``e / C_sigma``,
* charging energy and maximum operating temperature,
* intrinsic voltage gain ``C_g / C_j``.

The ``id_vg`` / ``id_vd`` helpers run the master equation so the
characteristics used throughout the examples and benchmarks come from actual
simulation rather than canned formulas: ``id_vg`` is a sweep of a bound
``master`` session (:mod:`repro.engines`), ``id_vd`` a drain sweep of the
master-equation solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..constants import E_CHARGE, charging_energy, max_operating_temperature
from ..errors import CircuitError

#: Standard element names used by every circuit built from a SETTransistor.
DRAIN_JUNCTION = "J_drain"
SOURCE_JUNCTION = "J_source"
GATE_CAPACITOR = "C_gate"
DRAIN_SOURCE = "VD"
GATE_SOURCE = "VG"
ISLAND = "dot"
DRAIN_NODE = "drain"
GATE_NODE = "gate"

#: Fields that must be positive and finite; the per-junction overrides and
#: the second gate only when set.
POSITIVE_FIELDS = ("junction_capacitance", "gate_capacitance",
                   "junction_resistance", "drain_capacitance",
                   "source_capacitance", "drain_resistance",
                   "source_resistance", "second_gate_capacitance")


@dataclass(frozen=True)
class SETTransistor:
    """Parameters of a metallic single-electron transistor.

    Parameters
    ----------
    junction_capacitance:
        Capacitance of each tunnel junction in farad (symmetric device).  For
        an asymmetric device set ``drain_capacitance``/``source_capacitance``
        explicitly.
    gate_capacitance:
        Gate-to-island capacitance in farad.
    junction_resistance:
        Tunnel resistance of each junction in ohm (symmetric device).
    drain_capacitance, source_capacitance, drain_resistance, source_resistance:
        Optional per-junction overrides (positive and finite when set).
    background_charge:
        Static offset charge on the island in coulomb.
    second_gate_capacitance:
        Optional second (control) gate capacitance (positive and finite
        when set); used by hybrid circuits that need an extra tuning knob.
    """

    junction_capacitance: float = 1e-18
    gate_capacitance: float = 2e-18
    junction_resistance: float = 1e6
    drain_capacitance: Optional[float] = None
    source_capacitance: Optional[float] = None
    drain_resistance: Optional[float] = None
    source_resistance: Optional[float] = None
    background_charge: float = 0.0
    second_gate_capacitance: Optional[float] = None

    def __post_init__(self) -> None:
        for label in POSITIVE_FIELDS:
            value = getattr(self, label)
            if value is not None and not 0.0 < value < math.inf:
                raise CircuitError(
                    f"{label} must be positive and finite, got {value!r}")

    # ------------------------------------------------------------ parameters

    @property
    def c_drain(self) -> float:
        """Drain-junction capacitance in farad."""
        return self.drain_capacitance if self.drain_capacitance is not None \
            else self.junction_capacitance

    @property
    def c_source(self) -> float:
        """Source-junction capacitance in farad."""
        return self.source_capacitance if self.source_capacitance is not None \
            else self.junction_capacitance

    @property
    def r_drain(self) -> float:
        """Drain-junction tunnel resistance in ohm."""
        return self.drain_resistance if self.drain_resistance is not None \
            else self.junction_resistance

    @property
    def r_source(self) -> float:
        """Source-junction tunnel resistance in ohm."""
        return self.source_resistance if self.source_resistance is not None \
            else self.junction_resistance

    @property
    def total_capacitance(self) -> float:
        """Total island capacitance ``C_sigma`` in farad."""
        total = self.c_drain + self.c_source + self.gate_capacitance
        if self.second_gate_capacitance is not None:
            total += self.second_gate_capacitance
        return total

    @property
    def charging_energy(self) -> float:
        """Single-electron charging energy ``e^2/(2 C_sigma)`` in joule."""
        return charging_energy(self.total_capacitance)

    @property
    def gate_period(self) -> float:
        """Coulomb-oscillation period ``e / C_g`` in volt.

        This is the quantity the paper singles out as *independent of the
        random background charge*.
        """
        return E_CHARGE / self.gate_capacitance

    @property
    def blockade_voltage(self) -> float:
        """Maximum Coulomb-blockade (threshold) voltage ``e / C_sigma`` in volt."""
        return E_CHARGE / self.total_capacitance

    @property
    def voltage_gain(self) -> float:
        """Intrinsic voltage gain ``C_g / C_j`` (paper §2).

        The relevant junction is the output-side one; for asymmetric devices
        the drain junction is used.
        """
        return self.gate_capacitance / self.c_drain

    def max_operating_temperature(self, margin: float = 40.0) -> float:
        """Highest temperature (K) at which the blockade is still usable."""
        return max_operating_temperature(self.total_capacitance, margin=margin)

    @property
    def series_resistance(self) -> float:
        """High-bias asymptotic resistance ``R_drain + R_source`` in ohm."""
        return self.r_drain + self.r_source

    # --------------------------------------------------------------- circuits

    def build_circuit(self, drain_voltage: float = 0.0, gate_voltage: float = 0.0,
                      name: str = "set_transistor",
                      background_charge: Optional[float] = None,
                      second_gate_voltage: float = 0.0) -> Circuit:
        """Build the two-junction SET circuit at the given bias point.

        Node names: ``drain`` (biased), ``gate`` (biased), ``dot`` (island),
        ``gnd`` (source electrode).  Element names are the module-level
        constants ``J_drain``, ``J_source``, ``C_gate``, ``VD``, ``VG``.
        """
        circuit = Circuit(name)
        offset = self.background_charge if background_charge is None \
            else background_charge
        circuit.add_island(ISLAND, offset_charge=offset)
        circuit.add_voltage_source(DRAIN_SOURCE, DRAIN_NODE, drain_voltage)
        circuit.add_voltage_source(GATE_SOURCE, GATE_NODE, gate_voltage)
        circuit.add_junction(DRAIN_JUNCTION, DRAIN_NODE, ISLAND,
                             self.c_drain, self.r_drain)
        circuit.add_junction(SOURCE_JUNCTION, ISLAND, "gnd",
                             self.c_source, self.r_source)
        circuit.add_capacitor(GATE_CAPACITOR, GATE_NODE, ISLAND, self.gate_capacitance)
        if self.second_gate_capacitance is not None:
            circuit.add_voltage_source("VG2", "gate2", second_gate_voltage)
            circuit.add_capacitor("C_gate2", "gate2", ISLAND,
                                  self.second_gate_capacitance)
        return circuit

    # ------------------------------------------------------------------ sweeps

    def id_vg(self, gate_voltages: Sequence[float], drain_voltage: float,
              temperature: float, background_charge: Optional[float] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Drain current vs gate voltage (Coulomb oscillations).

        Returns ``(gate_voltages, currents)`` with currents in ampere: one
        sweep of a ``master`` engine session bound to this device.
        """
        from ..engines import SweepAxes, get_engine

        session = get_engine("master").bind(
            self, temperature=temperature,
            background_charge=background_charge)
        axes = SweepAxes(gate_voltages, drain_voltage)
        return axes.gates, session.sweep(axes).currents

    def id_vd(self, drain_voltages: Sequence[float], gate_voltage: float,
              temperature: float, background_charge: Optional[float] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Drain current vs drain voltage (Coulomb blockade / staircase).

        One stacked drain sweep of the master-equation solver.  Engine
        sessions sweep the gate only, and a per-point session loop would be
        slower and could start a reducible chain from a different state.
        """
        from ..master.steadystate import MasterEquationSolver

        circuit = self.build_circuit(drain_voltage=float(drain_voltages[0]),
                                     gate_voltage=gate_voltage,
                                     background_charge=background_charge)
        solver = MasterEquationSolver(circuit, temperature=temperature)
        return solver.sweep_source(DRAIN_SOURCE, drain_voltages, DRAIN_JUNCTION)

    def conductance_vg(self, gate_voltages: Sequence[float], temperature: float,
                       probe_voltage: Optional[float] = None,
                       background_charge: Optional[float] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Small-signal conductance vs gate voltage, in siemens.

        Uses a symmetric two-point finite difference around zero drain bias
        with ``probe_voltage`` (default: a tenth of the blockade voltage).
        """
        probe = probe_voltage if probe_voltage is not None \
            else 0.1 * self.blockade_voltage
        _, forward = self.id_vg(gate_voltages, probe, temperature, background_charge)
        _, backward = self.id_vg(gate_voltages, -probe, temperature, background_charge)
        conductance = (forward - backward) / (2.0 * probe)
        return np.asarray(gate_voltages, dtype=float), conductance


__all__ = [
    "POSITIVE_FIELDS",
    "SETTransistor",
    "DRAIN_JUNCTION",
    "SOURCE_JUNCTION",
    "GATE_CAPACITOR",
    "DRAIN_SOURCE",
    "GATE_SOURCE",
    "ISLAND",
    "DRAIN_NODE",
    "GATE_NODE",
]
