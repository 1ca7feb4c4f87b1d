"""The series SET-MOS stack: the paper's key hybrid circuit element.

"Both circuits use essentially the same critical circuit element, a series
connection of a MOSFET with an SET, albeit at different operating points, to
realize a quantized and a random-number generator, respectively.  The MOSFET
provides the necessary gain element [...] and the SET provides high
functionality through its periodic IV-characteristic."  (paper, §3)

:class:`SETMOSStack` builds that element as a compact circuit: an n-channel
MOSFET current source on top (drain at the supply, gate at a bias voltage),
the SET underneath (drain at the shared output node, source grounded), and
the logic input driving the SET gate.  Sweeping the input produces the
periodic ("universal literal gate") transfer characteristic that both the
quantizer and the RNG build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..compact.circuit import CompactCircuit
from ..compact.mosfet import MOSFETModel
from ..compact.set_model import AnalyticSETModel
from ..compact.solver import DCSolver
from ..compact.sweep import dc_sweep
from ..constants import E_CHARGE
from ..errors import CircuitError

#: Standard node and device names of every SET-MOS stack circuit.
SUPPLY_NODE = "vdd"
BIAS_NODE = "bias"
INPUT_NODE = "in"
OUTPUT_NODE = "out"
MOSFET_NAME = "M_load"
SET_NAME = "X_set"


@dataclass
class SETMOSStack:
    """A MOSFET current source in series with a single-electron transistor.

    Parameters
    ----------
    set_model:
        The SET compact model (analytic or tunable); its gate is the stack's
        logic input.
    mosfet_model:
        The MOSFET acting as gain element / current-source load.
    supply_voltage:
        Rail voltage in volt.
    bias_voltage:
        MOSFET gate bias in volt.  Choose it so the MOSFET saturation current
        sits inside the SET's modulation range — :meth:`bias_for_current`
        helps.  When ``None``, the bias is auto-selected to target roughly
        half of the SET's maximum current.
    """

    set_model: object = field(default_factory=AnalyticSETModel)
    mosfet_model: MOSFETModel = field(default_factory=MOSFETModel)
    supply_voltage: float = 1.0
    bias_voltage: Optional[float] = None

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0.0:
            raise CircuitError("supply voltage must be positive")
        if self.bias_voltage is None:
            self.bias_voltage = self._auto_bias()

    # ------------------------------------------------------------------ setup

    def _set_current_range(self) -> Tuple[float, float]:
        """(min, max) SET current over one gate period at the blockade knee.

        The probe drain voltage is the SET's blockade scale ``e / C_sigma``
        (capped at half the supply): that is the output-voltage region where
        the SET's gate modulation is strongest, and therefore the region in
        which the MOSFET current source must place the operating point for the
        stack to act as a literal gate.
        """
        blockade = E_CHARGE / self.set_model.total_capacitance  # type: ignore
        probe_output = min(blockade, 0.5 * self.supply_voltage)
        period = self.set_model.gate_period  # type: ignore[attr-defined]
        gates = np.linspace(0.0, period, 41)
        currents = np.array([
            abs(self.set_model.drain_current(probe_output, vg))  # type: ignore
            for vg in gates
        ])
        return float(currents.min()), float(currents.max())

    def _auto_bias(self) -> float:
        low, high = self._set_current_range()
        target = max(0.4 * high, 0.5 * (low + high), 1e-15)
        return self.mosfet_model.gate_voltage_for_current(
            target, drain_source_voltage=0.5 * self.supply_voltage)

    def bias_for_current(self, current: float) -> float:
        """MOSFET gate bias that makes the load source ``current`` ampere."""
        return self.mosfet_model.gate_voltage_for_current(
            current, drain_source_voltage=0.5 * self.supply_voltage)

    # --------------------------------------------------------------- circuits

    def build_circuit(self, input_voltage: float = 0.0,
                      name: str = "setmos_stack") -> CompactCircuit:
        """Build the compact circuit at a given input voltage."""
        circuit = CompactCircuit(name)
        circuit.add_voltage_source("VDD", SUPPLY_NODE, self.supply_voltage)
        circuit.add_voltage_source("VB", BIAS_NODE, float(self.bias_voltage))
        circuit.add_voltage_source("VIN", INPUT_NODE, float(input_voltage))
        circuit.add_mosfet(MOSFET_NAME, drain=SUPPLY_NODE, gate=BIAS_NODE,
                           source=OUTPUT_NODE, model=self.mosfet_model)
        circuit.add_set(SET_NAME, drain=OUTPUT_NODE, gate=INPUT_NODE, source="gnd",
                        model=self.set_model)
        return circuit

    # ----------------------------------------------------------------- sweeps

    def output_voltage(self, input_voltage: float) -> float:
        """DC output-node voltage for one input voltage."""
        circuit = self.build_circuit(input_voltage)
        solution = DCSolver(circuit).solve(
            initial_guess={OUTPUT_NODE: 0.5 * self.supply_voltage})
        return solution.voltage(OUTPUT_NODE)

    def transfer_curve(self, input_voltages: Sequence[float]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Output voltage versus input voltage (the literal-gate characteristic)."""
        circuit = self.build_circuit(float(input_voltages[0]))
        sweep = dc_sweep(circuit, "VIN", input_voltages,
                         record_nodes=[OUTPUT_NODE], record_devices=[SET_NAME])
        return sweep.sweep_values, sweep.voltage(OUTPUT_NODE)

    def current_curve(self, input_voltages: Sequence[float]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Stack current versus input voltage."""
        circuit = self.build_circuit(float(input_voltages[0]))
        sweep = dc_sweep(circuit, "VIN", input_voltages,
                         record_nodes=[OUTPUT_NODE], record_devices=[SET_NAME])
        return sweep.sweep_values, sweep.current(SET_NAME)

    def operating_current(self, input_voltage: float = 0.0) -> float:
        """Supply current drawn by the stack at one input voltage, in ampere."""
        circuit = self.build_circuit(input_voltage)
        solution = DCSolver(circuit).solve(
            initial_guess={OUTPUT_NODE: 0.5 * self.supply_voltage})
        return abs(circuit.device_current(SET_NAME, solution.voltages))

    def power_dissipation(self, input_voltage: float = 0.0) -> float:
        """Static power drawn from the supply at one input voltage, in watt."""
        return self.supply_voltage * self.operating_current(input_voltage)

    @property
    def device_count(self) -> int:
        """Number of active devices in the stack (one SET + one MOSFET)."""
        return 2


__all__ = ["SETMOSStack", "SUPPLY_NODE", "BIAS_NODE", "INPUT_NODE", "OUTPUT_NODE",
           "MOSFET_NAME", "SET_NAME"]
