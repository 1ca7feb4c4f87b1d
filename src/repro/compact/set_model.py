"""Compact (SPICE-style) models of the single-electron transistor.

The paper's §4 describes two simulator families.  This module provides the
"SPICE with special SET models" side:

* :class:`AnalyticSETModel` — a closed-form two-state orthodox model in the
  spirit of the MIB (Mahapatra-Ionescu-Banerjee) and Wang-Porod analytic
  models: it keeps only the two charge states adjacent to the nearest
  degeneracy point and evaluates their sequential-tunnelling rates
  analytically.  It is fast, smooth and captures the periodic Id-Vg
  characteristic and the Coulomb blockade, but — exactly as the paper notes —
  it knows nothing about co-tunnelling or interacting SETs.
* :class:`MasterEquationSETModel` — the same terminal interface backed by the
  full master-equation solver (with a small operating-point cache), used when
  accuracy matters more than speed.
* :class:`SETDevice` — the circuit element wrapper that plugs either model
  into the compact Newton solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..core.rates import orthodox_rate, orthodox_rate_vec
from ..errors import CircuitError


def _lowest(*values) -> float:
    """Smallest of scalar parameters, element-wise over array parameters."""
    if any(isinstance(value, np.ndarray) for value in values):
        return min((float(np.min(value)) for value in values
                    if np.size(value)), default=math.inf)
    return min(values)


@dataclass(frozen=True)
class AnalyticSETModel:
    """Analytic compact model of a metallic SET (three-charge-state window).

    The model evaluates the closed-form orthodox free-energy changes for the
    charge states ``n0 - 1``, ``n0`` and ``n0 + 1`` around the instantaneous
    operating point, solves the resulting three-state balance analytically and
    returns the sequential-tunnelling current.  This is the same approximation
    class as the MIB / Wang-Porod SPICE macro-models: fast and smooth, exact
    in the sequential low-charge regime, but blind to co-tunnelling and to
    interactions between SETs.

    Every parameter may also be a NumPy array: the model then stands for a
    whole batch of devices, one per element, and :meth:`drain_current`
    broadcasts the parameters against the terminal voltages (see
    :attr:`batched`).

    Parameters
    ----------
    drain_capacitance, source_capacitance:
        Junction capacitances in farad.
    gate_capacitance:
        Gate capacitance in farad.
    drain_resistance, source_resistance:
        Junction tunnel resistances in ohm.
    background_charge:
        Island offset charge in coulomb.
    temperature:
        Operating temperature in kelvin.
    """

    drain_capacitance: float = 1e-18
    source_capacitance: float = 1e-18
    gate_capacitance: float = 2e-18
    drain_resistance: float = 1e6
    source_resistance: float = 1e6
    background_charge: float = 0.0
    temperature: float = 1.0

    def __post_init__(self) -> None:
        """Validate the parameters (element-wise for array parameters)."""
        if _lowest(self.drain_capacitance, self.source_capacitance,
                   self.gate_capacitance) <= 0.0:
            raise CircuitError("capacitances must be positive")
        if _lowest(self.drain_resistance, self.source_resistance) <= 0.0:
            raise CircuitError("resistances must be positive")
        if _lowest(self.temperature) < 0.0:
            raise CircuitError("temperature must be non-negative")

    @property
    def batched(self) -> bool:
        """Whether any parameter is array-valued (a batch of devices)."""
        return any(isinstance(value, np.ndarray) for value in (
            self.drain_capacitance, self.source_capacitance,
            self.gate_capacitance, self.drain_resistance,
            self.source_resistance, self.background_charge,
            self.temperature))

    @property
    def total_capacitance(self) -> float:
        """Total island capacitance in farad."""
        return self.drain_capacitance + self.source_capacitance + self.gate_capacitance

    @property
    def gate_period(self) -> float:
        """Coulomb-oscillation gate period ``e / C_g`` in volt."""
        return E_CHARGE / self.gate_capacitance

    # -------------------------------------------------------------- internals

    def _in_energies(self, n, drain_voltage, gate_voltage, source_voltage):
        """Free-energy cost of adding one electron to the island from each lead.

        Returns ``(dF_drain_in, dF_source_in)`` evaluated in state ``n`` (the
        textbook closed-form expressions).  The reverse (electron leaving the
        island from state ``n + 1``) has exactly the opposite sign.  Pure
        arithmetic: scalars and broadcastable arrays both work.
        """
        c_drain = self.drain_capacitance
        c_source = self.source_capacitance
        c_gate = self.gate_capacitance
        c_total = self.total_capacitance
        q0 = self.background_charge
        scale = E_CHARGE / c_total

        drain_in = scale * (0.5 * E_CHARGE + n * E_CHARGE - q0
                            + (c_source + c_gate) * drain_voltage
                            - c_source * source_voltage - c_gate * gate_voltage)
        source_in = scale * (0.5 * E_CHARGE + n * E_CHARGE - q0
                             + (c_drain + c_gate) * source_voltage
                             - c_drain * drain_voltage - c_gate * gate_voltage)
        return drain_in, source_in

    def _induced_charge(self, drain_voltage: float, gate_voltage: float,
                        source_voltage: float) -> float:
        """Total induced island charge in units of ``e``."""
        return (self.background_charge
                + self.gate_capacitance * gate_voltage
                + self.drain_capacitance * drain_voltage
                + self.source_capacitance * source_voltage) / E_CHARGE

    # -------------------------------------------------------------- interface

    def drain_current(self, drain_voltage, gate_voltage, source_voltage=0.0):
        """Drain-to-source current in ampere (sequential compact model).

        The current is evaluated with a three-charge-state window; to keep the
        characteristic continuous in every terminal voltage (a hard
        requirement for the Newton solver), the windows anchored at the two
        integer charge states bracketing the induced charge are blended
        linearly by its fractional part.

        Scalar arguments on a scalar model take the original closed-form
        path and return a ``float`` (the path the Newton solver and other
        per-point callers use).  NumPy-array arguments, or a
        :attr:`batched` model, broadcast through a vectorized replica of the
        same branch structure and return an array — this is what lets a
        dense stability map, or a whole batch of devices, evaluate in one
        call instead of one scalar call per point.

        Array and scalar paths are *not* bit-identical.  They perform the
        same floating-point operations in the same order except for the
        exponential inside the orthodox rate, where NumPy's SIMD ``exp`` may
        differ from ``math.exp`` by an ulp (see
        :func:`~repro.core.rates.orthodox_rate_vec`).  The contract:

        * at ``T = 0`` no rate needs the exponential and the paths are
          bit-identical;
        * wherever ``e |V_ds| >= 3 k_B T`` the currents agree within 4096
          ulp (about ``1e-12`` relative; device-scan grids in the blockade
          regime typically see under 10 ulp);
        * closer to zero drain bias the current is a near-cancellation of
          opposing flows, so only the *absolute* difference stays small
          (a few ulp of the larger flow), not the relative one.
        """
        if (np.ndim(drain_voltage) == 0 and np.ndim(gate_voltage) == 0
                and np.ndim(source_voltage) == 0 and not self.batched):
            induced = self._induced_charge(drain_voltage, gate_voltage,
                                           source_voltage)
            base = math.floor(induced)
            fraction = induced - base
            lower = self._window_current(int(base), drain_voltage, gate_voltage,
                                         source_voltage)
            if fraction <= 1e-12:
                return lower
            upper = self._window_current(int(base) + 1, drain_voltage,
                                         gate_voltage, source_voltage)
            return (1.0 - fraction) * lower + fraction * upper
        return self._drain_current_array(drain_voltage, gate_voltage,
                                         source_voltage)

    def drain_current_map(self, drain_voltages, gate_voltages,
                          source_voltage: float = 0.0) -> np.ndarray:
        """Dense ``(drain, gate)`` current map in one broadcast evaluation.

        Parameters
        ----------
        drain_voltages, gate_voltages:
            The map axes, in volt.
        source_voltage:
            Fixed source potential, in volt.

        Returns
        -------
        numpy.ndarray
            Shape ``(len(drain_voltages), len(gate_voltages))`` — the layout
            :func:`repro.analysis.stability.compute_stability_diagram`
            consumes.
        """
        drain = np.asarray(drain_voltages, dtype=float).reshape(-1, 1)
        gate = np.asarray(gate_voltages, dtype=float).reshape(1, -1)
        return self._drain_current_array(drain, gate,
                                         np.asarray(source_voltage, dtype=float))

    def _drain_current_array(self, drain_voltage, gate_voltage,
                             source_voltage) -> np.ndarray:
        """Vectorized :meth:`drain_current` (same branches, array-valued)."""
        vd, vg, vs = np.broadcast_arrays(np.asarray(drain_voltage, dtype=float),
                                         np.asarray(gate_voltage, dtype=float),
                                         np.asarray(source_voltage, dtype=float))
        # _induced_charge is pure arithmetic and broadcasts over arrays.
        induced = self._induced_charge(vd, vg, vs)
        base = np.floor(induced)
        fraction = induced - base
        lower = self._window_current_array(base, vd, vg, vs)
        upper = self._window_current_array(base + 1.0, vd, vg, vs)
        blended = (1.0 - fraction) * lower + fraction * upper
        return np.where(fraction <= 1e-12, lower, blended)

    def _window_current_array(self, centre, vd, vg, vs) -> np.ndarray:
        """Vectorized :meth:`_window_current` over an array of window centres.

        ``_in_energies`` is pure arithmetic and broadcasts over arrays, so the
        scalar and array paths share the electrostatics verbatim.
        """
        up_drain, up_source, down_drain, down_source = {}, {}, {}, {}
        for offset in (-1, 0, 1):
            drain_in, source_in = self._in_energies(centre + offset, vd, vg, vs)
            up_drain[offset] = orthodox_rate_vec(drain_in, self.drain_resistance,
                                                 self.temperature)
            up_source[offset] = orthodox_rate_vec(source_in,
                                                  self.source_resistance,
                                                  self.temperature)
            drain_in_below, source_in_below = self._in_energies(
                centre + offset - 1.0, vd, vg, vs)
            down_drain[offset] = orthodox_rate_vec(-drain_in_below,
                                                   self.drain_resistance,
                                                   self.temperature)
            down_source[offset] = orthodox_rate_vec(-source_in_below,
                                                    self.source_resistance,
                                                    self.temperature)

        up_centre = up_drain[0] + up_source[0]
        down_upper = down_drain[1] + down_source[1]
        down_centre = down_drain[0] + down_source[0]
        up_lower = up_drain[-1] + up_source[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            weight_upper = np.where(
                down_upper > 0.0, up_centre / down_upper,
                np.where(up_centre == 0.0, 0.0, np.inf))
            weight_lower = np.where(
                up_lower > 0.0, down_centre / up_lower,
                np.where(down_centre == 0.0, 0.0, np.inf))

            lower_infinite = np.isinf(weight_lower)
            upper_infinite = np.isinf(weight_upper)
            infinite_count = (lower_infinite.astype(float)
                              + upper_infinite.astype(float))
            any_infinite = infinite_count > 0.0
            # Same summation order as the scalar dict (centre, upper, lower).
            total = 1.0 + weight_upper + weight_lower
            divisor = np.where(any_infinite, 1.0, total)
            share = np.where(any_infinite, infinite_count, 1.0)
            probability_lower = np.where(any_infinite,
                                         lower_infinite / share,
                                         weight_lower / divisor)
            probability_centre = np.where(any_infinite, 0.0, 1.0 / divisor)
            probability_upper = np.where(any_infinite,
                                         upper_infinite / share,
                                         weight_upper / divisor)

        current = ((probability_centre * down_drain[0]
                    - probability_lower * up_drain[-1])
                   + (probability_upper * down_drain[1]
                      - probability_centre * up_drain[0]))
        dead = ~any_infinite & (total <= 0.0)
        return np.where(dead, 0.0, E_CHARGE * current)

    def _window_current(self, centre: int, drain_voltage: float, gate_voltage: float,
                        source_voltage: float) -> float:
        """Sequential current from the three-state window centred on ``centre``."""
        states = (centre - 1, centre, centre + 1)

        # Per-state rates: up = electron added (from drain / from source),
        # down = electron removed (to drain / to source).
        up_drain = {}
        up_source = {}
        down_drain = {}
        down_source = {}
        for n in states:
            drain_in, source_in = self._in_energies(n, drain_voltage, gate_voltage,
                                                    source_voltage)
            up_drain[n] = orthodox_rate(drain_in, self.drain_resistance,
                                        self.temperature)
            up_source[n] = orthodox_rate(source_in, self.source_resistance,
                                         self.temperature)
            drain_in_below, source_in_below = self._in_energies(
                n - 1, drain_voltage, gate_voltage, source_voltage)
            down_drain[n] = orthodox_rate(-drain_in_below, self.drain_resistance,
                                          self.temperature)
            down_source[n] = orthodox_rate(-source_in_below, self.source_resistance,
                                           self.temperature)

        # Birth-death chain over the three states: unnormalised weights by
        # successive flow-balance ratios, with absorbing corners handled
        # explicitly (weight collapses to the absorbing side).
        weights = {centre: 1.0}
        up_centre = up_drain[centre] + up_source[centre]
        down_upper = down_drain[centre + 1] + down_source[centre + 1]
        if down_upper > 0.0:
            weights[centre + 1] = up_centre / down_upper
        else:
            weights[centre + 1] = 0.0 if up_centre == 0.0 else math.inf
        down_centre = down_drain[centre] + down_source[centre]
        up_lower = up_drain[centre - 1] + up_source[centre - 1]
        if up_lower > 0.0:
            weights[centre - 1] = down_centre / up_lower
        else:
            weights[centre - 1] = 0.0 if down_centre == 0.0 else math.inf

        infinite = [n for n, weight in weights.items() if math.isinf(weight)]
        if infinite:
            probabilities = {n: (1.0 / len(infinite) if n in infinite else 0.0)
                             for n in states}
        else:
            total = sum(weights.values())
            if total <= 0.0:
                return 0.0
            probabilities = {n: weight / total for n, weight in weights.items()}

        # Electrons leaving to the drain carry conventional current into the
        # drain terminal (positive drain-to-source current).  Only the bonds
        # internal to the window are counted; transitions that would leave the
        # window are not balanced by any return path and would otherwise show
        # up as a spurious equilibrium current.
        current = 0.0
        for n in (centre - 1, centre):
            current += probabilities[n + 1] * down_drain[n + 1] \
                - probabilities[n] * up_drain[n]
        return E_CHARGE * current

    def conductance(self, drain_voltage: float, gate_voltage: float,
                    source_voltage: float = 0.0,
                    probe: float = 1e-6) -> float:
        """Numerical small-signal output conductance ``dI/dV_ds`` in siemens."""
        forward = self.drain_current(drain_voltage + probe, gate_voltage,
                                     source_voltage)
        backward = self.drain_current(drain_voltage - probe, gate_voltage,
                                      source_voltage)
        return (forward - backward) / (2.0 * probe)


class MasterEquationSETModel:
    """Master-equation-backed SET model with the compact-model interface.

    Slower but exact within sequential tunnelling; used by the simulator
    comparison experiment (E7) as the accuracy reference and by hybrid
    circuits when the two-state approximation is not good enough.

    Parameters
    ----------
    drain_capacitance, source_capacitance, gate_capacitance:
        Device capacitances in farad.
    drain_resistance, source_resistance:
        Tunnel resistances in ohm.
    background_charge:
        Island offset charge in coulomb.
    temperature:
        Operating temperature in kelvin.
    voltage_resolution:
        Terminal voltages are quantised to this resolution (volt) for the
        internal operating-point cache.
    """

    def __init__(self, drain_capacitance: float = 1e-18,
                 source_capacitance: float = 1e-18,
                 gate_capacitance: float = 2e-18,
                 drain_resistance: float = 1e6,
                 source_resistance: float = 1e6,
                 background_charge: float = 0.0,
                 temperature: float = 1.0,
                 voltage_resolution: float = 1e-7) -> None:
        if voltage_resolution <= 0.0:
            raise CircuitError("voltage resolution must be positive")
        self.drain_capacitance = drain_capacitance
        self.source_capacitance = source_capacitance
        self.gate_capacitance = gate_capacitance
        self.drain_resistance = drain_resistance
        self.source_resistance = source_resistance
        self.background_charge = background_charge
        self.temperature = temperature
        self.voltage_resolution = voltage_resolution
        self._cache: Dict[Tuple[int, int, int], float] = {}

    @property
    def total_capacitance(self) -> float:
        """Total island capacitance in farad."""
        return self.drain_capacitance + self.source_capacitance + self.gate_capacitance

    @property
    def gate_period(self) -> float:
        """Coulomb-oscillation gate period ``e / C_g`` in volt."""
        return E_CHARGE / self.gate_capacitance

    def drain_current(self, drain_voltage: float, gate_voltage: float,
                      source_voltage: float = 0.0) -> float:
        """Drain-to-source current in ampere from the full master equation."""
        key = (round(drain_voltage / self.voltage_resolution),
               round(gate_voltage / self.voltage_resolution),
               round(source_voltage / self.voltage_resolution))
        if key in self._cache:
            return self._cache[key]
        current = self._solve(*[value * self.voltage_resolution for value in key])
        self._cache[key] = current
        return current

    def _build_circuit(self, drain_voltage: float, gate_voltage: float,
                       source_voltage: float):
        from ..circuit.netlist import Circuit

        circuit = Circuit("set_compact")
        circuit.add_island("dot", offset_charge=self.background_charge)
        circuit.add_voltage_source("VD", "drain", drain_voltage)
        circuit.add_voltage_source("VS", "source", source_voltage)
        circuit.add_voltage_source("VG", "gate", gate_voltage)
        circuit.add_junction("J_drain", "drain", "dot", self.drain_capacitance,
                             self.drain_resistance)
        circuit.add_junction("J_source", "dot", "source", self.source_capacitance,
                             self.source_resistance)
        circuit.add_capacitor("C_gate", "gate", "dot", self.gate_capacitance)
        return circuit

    def _solve(self, drain_voltage: float, gate_voltage: float,
               source_voltage: float) -> float:
        from ..master.steadystate import MasterEquationSolver

        circuit = self._build_circuit(drain_voltage, gate_voltage,
                                      source_voltage)
        solver = MasterEquationSolver(circuit, temperature=self.temperature)
        # Conventional current from drain node into the island equals the
        # drain-to-source current of the device.
        return solver.current("J_drain")

    def drain_current_map(self, drain_voltages, gate_voltages,
                          source_voltage: float = 0.0) -> np.ndarray:
        """Batched ``(drain, gate)`` current map from the master equation.

        One circuit and one
        :class:`~repro.master.transitions.TransitionTable` serve the whole
        grid (per point only the rates are refreshed and one linear system is
        solved), so dense maps no longer pay a full solver construction per
        pixel.

        Parameters
        ----------
        drain_voltages, gate_voltages:
            The map axes, in volt.
        source_voltage:
            Fixed source potential, in volt.

        Returns
        -------
        numpy.ndarray
            Shape ``(len(drain_voltages), len(gate_voltages))``.
        """
        from ..master.steadystate import MasterEquationSolver

        circuit = self._build_circuit(0.0, 0.0, float(source_voltage))
        solver = MasterEquationSolver(circuit, temperature=self.temperature)
        _, _, currents = solver.sweep_gate_drain(
            "VG", "VD", np.asarray(gate_voltages, dtype=float),
            np.asarray(drain_voltages, dtype=float), "J_drain")
        return currents

    def clear_cache(self) -> None:
        """Drop all cached operating points (e.g. after mutating parameters)."""
        self._cache.clear()


class TunableSETModel:
    """A mutable wrapper around :class:`AnalyticSETModel`.

    Quasi-static transient drivers (most prominently the single-electron
    random-number generator) need to change the island's effective background
    charge — and occasionally the gate capacitance — *between* time steps
    while the device stays wired into the same compact circuit.  This wrapper
    exposes those knobs as writable attributes and rebuilds its internal
    analytic model lazily.
    """

    def __init__(self, **parameters) -> None:
        self._parameters = dict(AnalyticSETModel().__dict__)
        self._parameters.update(parameters)
        self._model = AnalyticSETModel(**self._parameters)

    def __getattr__(self, name: str):
        parameters = object.__getattribute__(self, "_parameters")
        if name in parameters:
            return parameters[name]
        raise AttributeError(name)

    def set_parameter(self, name: str, value: float) -> None:
        """Change one model parameter (e.g. ``background_charge``)."""
        if name not in self._parameters:
            raise CircuitError(
                f"unknown SET parameter {name!r}; known parameters: "
                f"{sorted(self._parameters)}"
            )
        if self._parameters[name] != value:
            self._parameters[name] = value
            self._model = AnalyticSETModel(**self._parameters)

    @property
    def background_charge(self) -> float:
        """Current effective background charge in coulomb."""
        return self._parameters["background_charge"]

    @background_charge.setter
    def background_charge(self, value: float) -> None:
        self.set_parameter("background_charge", float(value))

    @property
    def gate_capacitance(self) -> float:
        """Current gate capacitance in farad."""
        return self._parameters["gate_capacitance"]

    @gate_capacitance.setter
    def gate_capacitance(self, value: float) -> None:
        self.set_parameter("gate_capacitance", float(value))

    @property
    def total_capacitance(self) -> float:
        """Total island capacitance in farad."""
        return self._model.total_capacitance

    @property
    def gate_period(self) -> float:
        """Coulomb-oscillation gate period in volt."""
        return self._model.gate_period

    def drain_current(self, drain_voltage, gate_voltage, source_voltage=0.0):
        """Drain current of the underlying analytic model (scalar or array)."""
        return self._model.drain_current(drain_voltage, gate_voltage, source_voltage)

    def drain_current_map(self, drain_voltages, gate_voltages,
                          source_voltage: float = 0.0) -> np.ndarray:
        """Dense ``(drain, gate)`` current map of the underlying model.

        Parameters
        ----------
        drain_voltages, gate_voltages:
            The map axes, in volt.
        source_voltage:
            Fixed source potential, in volt.

        Returns
        -------
        numpy.ndarray
            Shape ``(len(drain_voltages), len(gate_voltages))``.
        """
        return self._model.drain_current_map(drain_voltages, gate_voltages,
                                             source_voltage)


@dataclass(frozen=True)
class SETDevice:
    """A three-terminal SET instance wired into a compact circuit.

    ``model`` may be an :class:`AnalyticSETModel` or a
    :class:`MasterEquationSETModel`; anything with a ``drain_current(vd, vg,
    vs)`` method works.
    """

    name: str
    drain: str
    gate: str
    source: str
    model: object

    @property
    def terminals(self) -> Tuple[str, ...]:
        """Connected nodes (the gate is purely capacitive: no DC current)."""
        return (self.drain, self.gate, self.source)

    def terminal_currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        """Terminal currents computed by the attached SET model."""
        current = self.model.drain_current(  # type: ignore[attr-defined]
            voltages[self.drain], voltages[self.gate], voltages[self.source])
        return {self.drain: current, self.gate: 0.0, self.source: -current}


__all__ = ["AnalyticSETModel", "MasterEquationSETModel", "SETDevice", "TunableSETModel"]
