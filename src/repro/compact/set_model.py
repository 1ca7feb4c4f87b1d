"""Compact (SPICE-style) models of the single-electron transistor.

The paper's §4 describes two simulator families.  This module provides the
"SPICE with special SET models" side:

* :class:`AnalyticSETModel` — a closed-form orthodox model in the spirit of
  the MIB (Mahapatra-Ionescu-Banerjee) and Wang-Porod analytic models: it
  solves the sequential-tunnelling balance of a three-charge-state window
  analytically, for the two windows centred on the integer charge states
  that bracket the induced island charge, and blends the two currents by
  its fractional part.  It is fast, smooth and captures the periodic Id-Vg
  characteristic and the Coulomb blockade, but — exactly as the paper notes —
  it knows nothing about co-tunnelling or interacting SETs.  Its
  :meth:`~AnalyticSETModel.chain_current` solves the whole sequential
  charge chain instead, in closed form: the ``master`` engine's device
  batches.
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


def _holds(check, *values) -> bool:
    """Whether ``check`` holds for every value, element-wise for arrays.

    Every check below is False for NaN, so NaN parameters fail it.
    """
    return all(bool(np.all(check(np.asarray(value, dtype=float))))
               for value in values)


def _positive_finite(value):
    return (value > 0.0) & (value < math.inf)


def _non_negative_finite(value):
    return (value >= 0.0) & (value < math.inf)


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
    second_gate_capacitance:
        Capacitance in farad of a grounded second gate; it adds to the
        island's ``C_sigma`` but induces no charge.
    """

    drain_capacitance: float = 1e-18
    source_capacitance: float = 1e-18
    gate_capacitance: float = 2e-18
    drain_resistance: float = 1e6
    source_resistance: float = 1e6
    background_charge: float = 0.0
    temperature: float = 1.0
    second_gate_capacitance: float = 0.0

    def __post_init__(self) -> None:
        """Validate the parameters (element-wise for array parameters)."""
        if not _holds(_positive_finite, self.drain_capacitance,
                      self.source_capacitance, self.gate_capacitance):
            raise CircuitError("capacitances must be positive and finite")
        if not _holds(_non_negative_finite, self.second_gate_capacitance):
            raise CircuitError(
                "second-gate capacitance must be non-negative and finite")
        if not _holds(_positive_finite, self.drain_resistance,
                      self.source_resistance):
            raise CircuitError("resistances must be positive and finite")
        if not _holds(_non_negative_finite, self.temperature):
            raise CircuitError("temperature must be non-negative and finite")
        if not _holds(np.isfinite, self.background_charge):
            raise CircuitError("background charge must be finite")

    @property
    def batched(self) -> bool:
        """Whether any parameter is array-valued (a batch of devices)."""
        return any(isinstance(value, np.ndarray) for value in (
            self.drain_capacitance, self.source_capacitance,
            self.gate_capacitance, self.drain_resistance,
            self.source_resistance, self.background_charge,
            self.temperature, self.second_gate_capacitance))

    @property
    def total_capacitance(self) -> float:
        """Total island capacitance in farad."""
        return (self.drain_capacitance + self.source_capacitance
                + self.gate_capacitance + self.second_gate_capacitance)

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
        # The grounded second gate only loads the island.
        c_shunt = c_gate + self.second_gate_capacitance
        c_total = self.total_capacitance
        q0 = self.background_charge
        scale = E_CHARGE / c_total

        drain_in = scale * (0.5 * E_CHARGE + n * E_CHARGE - q0
                            + (c_source + c_shunt) * drain_voltage
                            - c_source * source_voltage - c_gate * gate_voltage)
        source_in = scale * (0.5 * E_CHARGE + n * E_CHARGE - q0
                             + (c_drain + c_shunt) * source_voltage
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

    def _broadcast_voltages(self, drain_voltage, gate_voltage,
                            source_voltage):
        """The voltages broadcast against every parameter.

        The stacked rate operands of :meth:`_bond_rates` then share one
        shape however the batch is laid out.
        """
        vd, vg, vs, *_ = np.broadcast_arrays(
            drain_voltage, gate_voltage, source_voltage, self.drain_capacitance,
            self.source_capacitance, self.gate_capacitance,
            self.second_gate_capacitance, self.background_charge,
            self.temperature, self.drain_resistance, self.source_resistance)
        return vd, vg, vs

    def _bond_rates(self, offsets, base, vd, vg, vs):
        """Orthodox rates across the bonds ``n -> n + 1``, ``n = base + offsets``.

        One :func:`~repro.core.rates.orthodox_rate_vec` call over the
        ``(lead, direction, offset)`` stack: direction 0 adds an electron
        in state ``n`` (at ``+dF_in(n)``), direction 1 removes one from
        state ``n + 1`` (at ``-dF_in(n)``).  ``vd``, ``vg`` and ``vs`` come
        from :meth:`_broadcast_voltages`.

        Returns
        -------
        tuple of numpy.ndarray
            ``(up_drain, down_drain, up_source, down_source)``, each with
            the offset axis first.
        """
        drain_in, source_in = self._in_energies(np.add.outer(offsets, base),
                                                vd, vg, vs)
        r_drain, r_source, _ = np.broadcast_arrays(
            self.drain_resistance, self.source_resistance, vd)
        rates = orthodox_rate_vec(
            np.stack([drain_in, -drain_in, source_in, -source_in]).reshape(
                (2, 2) + drain_in.shape),
            np.stack([r_drain, r_source])[:, None, None], self.temperature)
        (up_drain, down_drain), (up_source, down_source) = rates
        return up_drain, down_drain, up_source, down_source

    def _drain_current_array(self, drain_voltage, gate_voltage,
                             source_voltage) -> np.ndarray:
        """Vectorized :meth:`drain_current`: both windows in one stacked pass.

        The windows centred on ``base`` and ``base + 1`` (``base`` the floor
        of the induced charge) need the rates into the island from the
        states ``n = base - 1 .. base + 1`` and out of it from ``n + 1``: the
        orthodox rates at ``+dF_in(n)`` and ``-dF_in(n)``.  One
        :func:`~repro.core.rates.orthodox_rate_vec` call evaluates all
        twelve, and both balances run in one pass over a leading window
        axis, each element through the same floating-point operations as in
        :meth:`_window_current`.
        """
        vd, vg, vs = self._broadcast_voltages(drain_voltage, gate_voltage,
                                              source_voltage)
        induced = self._induced_charge(vd, vg, vs)
        base = np.floor(induced)
        fraction = induced - base
        # Index n - base + 1 along the leading axis.
        up_drain, down_drain, up_source, down_source = self._bond_rates(
            [-1.0, 0.0, 1.0], base, vd, vg, vs)
        up = up_drain + up_source
        down = down_drain + down_source

        # Window axis first: index 0 is the window centred on base, 1 the
        # one on base + 1.
        up_centre, up_lower = up[1:], up[:2]
        down_upper, down_centre = down[1:], down[:2]
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

        current = ((probability_centre * down_drain[:2]
                    - probability_lower * up_drain[:2])
                   + (probability_upper * down_drain[1:]
                      - probability_centre * up_drain[1:]))
        dead = ~any_infinite & (total <= 0.0)
        lower, upper = np.where(dead, 0.0, E_CHARGE * current)
        blended = (1.0 - fraction) * lower + fraction * upper
        return np.where(fraction <= 1e-12, lower, blended)

    def chain_current(self, drain_voltage, gate_voltage, half_width: int,
                      source_voltage=0.0
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact sequential-tunnelling current on ``2 half_width + 1`` states.

        Under sequential tunnelling the island charge ``n`` is a
        birth-death chain: no net flow crosses the cut between ``n`` and
        ``n + 1``, so ``p(n + 1) / p(n) = Gamma+(n) / Gamma-(n + 1)`` with
        both rates summed over the two junctions, and no linear solve is
        needed.  The window holds the states within ``half_width`` of the
        start ``s = ceil(n_induced - 1/2)`` (at ``T = 0`` the chain's closed
        class holds it, unless a rate vanishes at an exact degeneracy).
        One :func:`~repro.core.rates.orthodox_rate_vec`
        call evaluates every rate of the ``(lead, direction, bond)`` stack;
        the log-weights are cumulative sums of ``log(Gamma+ / Gamma-)``
        outward from ``s``, normalised per point.

        An exactly zero rate leading away from ``s`` cuts the chain: the
        states beyond it are unreachable and get probability 0.  A zero
        rate leading back towards ``s`` on a reachable bond makes the chain
        *reducible* (mass flows away from ``s`` and is trapped); such a
        point is only flagged, and its current is not meaningful.

        Parameters
        ----------
        drain_voltage, gate_voltage, source_voltage:
            Terminal voltages in volt, broadcastable with the parameters.
        half_width:
            States on each side of the start.

        Returns
        -------
        (numpy.ndarray, numpy.ndarray, numpy.ndarray)
            Drain-to-source currents in ampere, the probability held by the
            two boundary states, and the reducible mask, each of the
            broadcast shape.
        """
        vd, vg, vs = self._broadcast_voltages(drain_voltage, gate_voltage,
                                              source_voltage)
        start = np.ceil(self._induced_charge(vd, vg, vs) - 0.5)
        # Bond j joins states start - half_width + j and one above it.
        up_drain, down_drain, up_source, down_source = self._bond_rates(
            np.arange(-half_width, half_width, dtype=float), start, vd, vg,
            vs)
        up = up_drain + up_source
        down = down_drain + down_source

        # Outward from the start: up the bonds above it, down those below.
        outward = (up[half_width:], down[half_width - 1::-1])
        inward = (down[half_width:], up[half_width - 1::-1])
        log_weights = np.zeros((2 * half_width + 1,) + up.shape[1:])
        reducible = np.zeros(up.shape[1:], dtype=bool)
        sides = (log_weights[half_width + 1:],
                 log_weights[half_width - 1::-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            for away, back, side in zip(outward, inward, sides):
                reached = np.logical_and.accumulate(away > 0.0, axis=0)
                trapped = reached & (back <= 0.0)
                reducible |= trapped.any(axis=0)
                reached &= ~trapped
                np.cumsum(np.where(reached, np.log(away / back), -np.inf),
                          axis=0, out=side)
        log_weights -= log_weights.max(axis=0)
        probabilities = np.exp(log_weights)
        probabilities /= probabilities.sum(axis=0)

        # The stationary current is the same through either junction: the
        # electrons leaving to the drain or arriving from the source.  The
        # junction with the larger resistance carries it with the least
        # cancellation between its forward and backward flows.
        to_drain = (probabilities[1:] * down_drain
                    - probabilities[:-1] * up_drain).sum(axis=0)
        from_source = (probabilities[:-1] * up_source
                       - probabilities[1:] * down_source).sum(axis=0)
        current = E_CHARGE * np.where(
            self.source_resistance > self.drain_resistance, from_source,
            to_drain)
        return (current, probabilities[0] + probabilities[-1], reducible)

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
    circuits when the analytic three-state windows are not good enough.

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
