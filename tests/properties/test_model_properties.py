"""Property-based tests of the compact SET model and device helpers."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import AnalyticSETModel, MOSFETModel
from repro.constants import E_CHARGE
from repro.devices import SingleElectronBox

capacitances = st.floats(min_value=0.1e-18, max_value=5e-18)
bias_voltages = st.floats(min_value=-0.1, max_value=0.1)
gate_voltages = st.floats(min_value=-0.3, max_value=0.3)
temperatures = st.floats(min_value=0.1, max_value=50.0)
offsets = st.floats(min_value=-0.5, max_value=0.5)


class TestAnalyticSETModelProperties:
    @given(c_junction=capacitances, c_gate=capacitances, vd=bias_voltages,
           vg=gate_voltages, temperature=temperatures, q0=offsets)
    @settings(max_examples=80, deadline=None)
    def test_current_is_finite_and_bounded_by_the_ohmic_limit(self, c_junction,
                                                              c_gate, vd, vg,
                                                              temperature, q0):
        model = AnalyticSETModel(drain_capacitance=c_junction,
                                 source_capacitance=c_junction,
                                 gate_capacitance=c_gate,
                                 background_charge=q0 * E_CHARGE,
                                 temperature=temperature)
        current = model.drain_current(vd, vg)
        assert math.isfinite(current)
        # Sequential tunnelling can never exceed a few times the ohmic current
        # through the two junctions in series (thermal smearing can add ~kT/e).
        thermal_voltage = 1.381e-23 * temperature / E_CHARGE
        bound = (abs(vd) + 10.0 * thermal_voltage + E_CHARGE / model.total_capacitance) \
            / (model.drain_resistance + model.source_resistance)
        assert abs(current) <= 3.0 * bound + 1e-18

    @given(c_junction=capacitances, c_gate=capacitances, vd=bias_voltages,
           vg=gate_voltages, temperature=temperatures)
    @settings(max_examples=80, deadline=None)
    def test_gate_periodicity(self, c_junction, c_gate, vd, vg, temperature):
        model = AnalyticSETModel(drain_capacitance=c_junction,
                                 source_capacitance=c_junction,
                                 gate_capacitance=c_gate,
                                 temperature=temperature)
        base = model.drain_current(vd, vg)
        shifted = model.drain_current(vd, vg + model.gate_period)
        scale = max(abs(base), abs(shifted), 1e-18)
        assert abs(base - shifted) <= 1e-5 * scale

    @given(c_junction=capacitances, c_gate=capacitances, vg=gate_voltages,
           temperature=temperatures)
    @settings(max_examples=60, deadline=None)
    def test_zero_bias_carries_no_current(self, c_junction, c_gate, vg, temperature):
        model = AnalyticSETModel(drain_capacitance=c_junction,
                                 source_capacitance=c_junction,
                                 gate_capacitance=c_gate,
                                 temperature=temperature)
        # Exactly zero up to floating-point cancellation: the residual must be
        # negligible against the device's natural current scale e / (R C).
        scale = E_CHARGE / (model.drain_resistance * model.total_capacitance)
        assert abs(model.drain_current(0.0, vg)) < 1e-5 * scale


class TestMOSFETModelProperties:
    @given(vgs=st.floats(min_value=-1.0, max_value=2.0),
           vds=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_nmos_current_non_negative_for_positive_vds(self, vgs, vds):
        model = MOSFETModel()
        assert model.drain_current(vgs, vds) >= 0.0

    @given(vgs=st.floats(min_value=0.0, max_value=2.0),
           vds=st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_current_monotone_in_gate_drive(self, vgs, vds):
        model = MOSFETModel()
        assert model.drain_current(vgs + 0.1, vds) >= model.drain_current(vgs, vds)


class TestElectronBoxProperties:
    @given(c_junction=capacitances, c_gate=capacitances, q0=offsets,
           gate_voltage=st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_ground_state_minimises_the_box_energy(self, c_junction, c_gate, q0,
                                                   gate_voltage):
        box = SingleElectronBox(junction_capacitance=c_junction,
                                gate_capacitance=c_gate,
                                background_charge=q0 * E_CHARGE)
        best = box.ground_state_electrons(gate_voltage)
        induced = c_gate * gate_voltage + q0 * E_CHARGE

        def energy(n):
            return (n * E_CHARGE - induced) ** 2

        # Allow for floating-point ties exactly at the degeneracy point
        # (q0 = e/2), where two electron numbers are equally good.
        slack = 1e-9 * (energy(best) + E_CHARGE**2 * 1e-12)
        assert energy(best) <= energy(best + 1) + slack
        assert energy(best) <= energy(best - 1) + slack

    @given(c_gate=capacitances, q0=offsets)
    @settings(max_examples=60, deadline=None)
    def test_staircase_is_monotone_non_decreasing(self, c_gate, q0):
        box = SingleElectronBox(gate_capacitance=c_gate,
                                background_charge=q0 * E_CHARGE)
        gates = np.linspace(-2.0 * box.gate_period, 2.0 * box.gate_period, 101)
        _, electrons = box.charge_staircase(gates)
        assert np.all(np.diff(electrons) >= 0)
