"""The complementary single-electron inverter (Tucker inverter).

Two SETs in series between the supply rail and ground form the
single-electron analogue of a CMOS inverter.  The output node between them is
itself a Coulomb island (it is only reachable through tunnel junctions), and
the complementary behaviour is obtained by phase-shifting the lower SET's
Coulomb oscillation by half a period (modelled here as a built-in ``e/2``
offset charge, electrically equivalent to a bias gate).

Two paper claims hang off this device:

* the voltage gain of SET logic is ``C_g / C_j`` and gains above one force a
  larger total island capacitance, i.e. a lower operating temperature
  (experiment E3), and
* *directly coded* SET logic — where the output voltage level is the logic
  value — is scrambled by random background charges (experiment E2, where the
  inverter is the victim and the AM/FM-coded gates of
  :mod:`repro.logic.amfm` are the remedy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..constants import E_CHARGE
from ..core.energy import EnergyModel
from ..errors import AnalysisError, CircuitError

if TYPE_CHECKING:
    from ..master.steadystate import SteadyStateSolution

#: Node names used by every inverter circuit.
UPPER_ISLAND = "island_up"
LOWER_ISLAND = "island_dn"
OUTPUT_ISLAND = "out"
INPUT_NODE = "input"
SUPPLY_NODE = "vdd"


def mean_island_potential(solution: SteadyStateSolution, model: EnergyModel,
                          island: str) -> float:
    """Probability-weighted island potential (volt) from a steady-state solution."""
    index = model.island_index(island)
    total = 0.0
    for state, probability in zip(solution.space.states, solution.probabilities):
        if probability == 0.0:
            continue
        potentials = model.island_potentials(np.array(state, dtype=np.int64))
        total += probability * potentials[index]
    return float(total)


@dataclass(frozen=True)
class SETInverter:
    """A complementary SET inverter.

    Parameters
    ----------
    junction_capacitance:
        Capacitance of each of the four tunnel junctions, in farad.
    junction_resistance:
        Tunnel resistance of each junction, in ohm.
    gate_capacitance:
        Input-gate capacitance to each SET island, in farad.
    load_capacitance:
        Capacitance from the output island to ground, in farad.  It should be
        large compared to the junction capacitance so the output potential is
        quasi-continuous (the default is ten junction capacitances).
    supply_voltage:
        Supply rail voltage in volt; when ``None`` a working default of
        ``e / (2 C_sigma)`` of a single SET island is used, which keeps the
        off transistor safely inside its Coulomb blockade.
    """

    junction_capacitance: float = 1e-18
    junction_resistance: float = 1e6
    gate_capacitance: float = 2e-18
    load_capacitance: float = 10e-18
    supply_voltage: Optional[float] = None

    def __post_init__(self) -> None:
        if min(self.junction_capacitance, self.junction_resistance,
               self.gate_capacitance, self.load_capacitance) <= 0.0:
            raise CircuitError("all inverter capacitances and resistances must be positive")

    # ------------------------------------------------------------- parameters

    @property
    def island_capacitance(self) -> float:
        """Total capacitance of each SET island, in farad."""
        return 2.0 * self.junction_capacitance + self.gate_capacitance

    @property
    def default_supply(self) -> float:
        """Default supply voltage ``e / (2 C_sigma)`` in volt."""
        return 0.5 * E_CHARGE / self.island_capacitance

    @property
    def vdd(self) -> float:
        """Actual supply voltage used by :meth:`build_circuit`."""
        return self.supply_voltage if self.supply_voltage is not None \
            else self.default_supply

    @property
    def theoretical_gain(self) -> float:
        """Small-signal voltage gain bound ``C_g / C_j`` (paper §2)."""
        return self.gate_capacitance / self.junction_capacitance

    @property
    def logic_swing(self) -> float:
        """Nominal output swing (volt): the supply voltage."""
        return self.vdd

    # --------------------------------------------------------------- circuits

    def build_circuit(self, input_voltage: float,
                      offsets: Optional[Dict[str, float]] = None,
                      name: str = "set_inverter") -> Circuit:
        """Build the inverter circuit at a given input voltage.

        Parameters
        ----------
        input_voltage:
            Input node voltage in volt.
        offsets:
            Extra offset charges (coulomb) per island name, *added on top of*
            the built-in ``e/2`` complementary bias of the upper island.
            Island names: ``island_up``, ``island_dn``, ``out``.
        """
        offsets = offsets or {}
        circuit = Circuit(name)
        circuit.add_island(
            UPPER_ISLAND,
            offset_charge=0.5 * E_CHARGE + offsets.get(UPPER_ISLAND, 0.0))
        circuit.add_island(OUTPUT_ISLAND, offset_charge=offsets.get(OUTPUT_ISLAND, 0.0))
        circuit.add_island(LOWER_ISLAND, offset_charge=offsets.get(LOWER_ISLAND, 0.0))
        circuit.add_voltage_source("VDD", SUPPLY_NODE, self.vdd)
        circuit.add_voltage_source("VIN", INPUT_NODE, input_voltage)
        circuit.add_junction("J_up_supply", SUPPLY_NODE, UPPER_ISLAND,
                             self.junction_capacitance, self.junction_resistance)
        circuit.add_junction("J_up_out", UPPER_ISLAND, OUTPUT_ISLAND,
                             self.junction_capacitance, self.junction_resistance)
        circuit.add_junction("J_dn_out", OUTPUT_ISLAND, LOWER_ISLAND,
                             self.junction_capacitance, self.junction_resistance)
        circuit.add_junction("J_dn_ground", LOWER_ISLAND, "gnd",
                             self.junction_capacitance, self.junction_resistance)
        circuit.add_capacitor("C_in_up", INPUT_NODE, UPPER_ISLAND,
                              self.gate_capacitance)
        circuit.add_capacitor("C_in_dn", INPUT_NODE, LOWER_ISLAND,
                              self.gate_capacitance)
        circuit.add_capacitor("C_load", OUTPUT_ISLAND, "gnd", self.load_capacitance)
        return circuit

    # ----------------------------------------------------------------- curves

    def output_voltage(self, input_voltage: float, temperature: float,
                       offsets: Optional[Dict[str, float]] = None,
                       extra_electrons: int = 2) -> float:
        """Steady-state output voltage (volt) for one input voltage."""
        from ..master.steadystate import MasterEquationSolver

        circuit = self.build_circuit(input_voltage, offsets=offsets)
        model = EnergyModel(circuit)
        solver = MasterEquationSolver(circuit, temperature=temperature,
                                      extra_electrons=extra_electrons)
        solution = solver.solve()
        return mean_island_potential(solution, model, OUTPUT_ISLAND)

    def transfer_curve(self, input_voltages: Sequence[float], temperature: float,
                       offsets: Optional[Dict[str, float]] = None,
                       extra_electrons: int = 2) -> Tuple[np.ndarray, np.ndarray]:
        """Voltage transfer characteristic ``(V_in, V_out)``."""
        outputs = np.array([
            self.output_voltage(v, temperature, offsets=offsets,
                                extra_electrons=extra_electrons)
            for v in input_voltages
        ])
        return np.asarray(input_voltages, dtype=float), outputs

    def measured_gain(self, temperature: float, points: int = 31,
                      offsets: Optional[Dict[str, float]] = None) -> float:
        """Maximum slope magnitude of the transfer curve over one input period."""
        period = E_CHARGE / self.gate_capacitance
        inputs = np.linspace(0.0, period, points)
        _, outputs = self.transfer_curve(inputs, temperature, offsets=offsets)
        slopes = np.abs(np.gradient(outputs, inputs))
        return float(slopes.max())

    def logic_levels(self, temperature: float,
                     offsets: Optional[Dict[str, float]] = None
                     ) -> Tuple[float, float]:
        """Output voltages for nominal logic-0 and logic-1 inputs.

        Logic 0 is an input of 0 V, logic 1 an input of half a gate period
        (the complementary point).  Returns ``(V_out(0), V_out(1))``.
        """
        period = E_CHARGE / self.gate_capacitance
        low_in = 0.0
        high_in = 0.5 * period
        return (self.output_voltage(low_in, temperature, offsets=offsets),
                self.output_voltage(high_in, temperature, offsets=offsets))


__all__ = ["SETInverter", "mean_island_potential", "UPPER_ISLAND", "LOWER_ISLAND",
           "OUTPUT_ISLAND", "INPUT_NODE", "SUPPLY_NODE"]
