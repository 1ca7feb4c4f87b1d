"""Tests for the SETTransistor device."""

import math

import numpy as np
import pytest

from repro.analysis import analyze_oscillations
from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.errors import CircuitError


class TestFiguresOfMerit:
    def test_total_capacitance(self, standard_transistor):
        assert standard_transistor.total_capacitance == pytest.approx(4e-18)

    def test_gate_period(self, standard_transistor):
        assert standard_transistor.gate_period == pytest.approx(E_CHARGE / 2e-18)

    def test_blockade_voltage(self, standard_transistor):
        assert standard_transistor.blockade_voltage == pytest.approx(E_CHARGE / 4e-18)

    def test_charging_energy(self, standard_transistor):
        assert standard_transistor.charging_energy == pytest.approx(E_CHARGE**2 / 8e-18)

    def test_voltage_gain_is_cg_over_cj(self, standard_transistor):
        assert standard_transistor.voltage_gain == pytest.approx(2.0)

    def test_max_operating_temperature(self, standard_transistor):
        expected = standard_transistor.charging_energy / (40.0 * BOLTZMANN)
        assert standard_transistor.max_operating_temperature() == pytest.approx(expected)

    def test_asymmetric_device_overrides(self):
        device = SETTransistor(junction_capacitance=1e-18, gate_capacitance=1e-18,
                               junction_resistance=1e6, drain_capacitance=2e-18,
                               source_resistance=5e6)
        assert device.c_drain == pytest.approx(2e-18)
        assert device.c_source == pytest.approx(1e-18)
        assert device.r_source == pytest.approx(5e6)
        assert device.series_resistance == pytest.approx(6e6)
        assert device.total_capacitance == pytest.approx(4e-18)

    def test_second_gate_adds_capacitance(self):
        device = SETTransistor(second_gate_capacitance=1e-18)
        assert device.total_capacitance == pytest.approx(5e-18)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CircuitError):
            SETTransistor(junction_capacitance=0.0)
        with pytest.raises(CircuitError):
            SETTransistor(junction_resistance=-1.0)

    @pytest.mark.parametrize("field, bad", [
        ("junction_capacitance", math.inf),
        ("gate_capacitance", math.nan),
        ("junction_resistance", math.nan),
        ("junction_resistance", math.inf),
    ])
    def test_non_finite_parameters_rejected(self, field, bad):
        with pytest.raises(CircuitError, match="finite"):
            SETTransistor(**{field: bad})


class TestCircuitConstruction:
    def test_standard_node_and_element_names(self, standard_transistor):
        circuit = standard_transistor.build_circuit(drain_voltage=0.01,
                                                    gate_voltage=0.02)
        assert circuit.has_node("dot")
        assert circuit.node("drain").voltage == pytest.approx(0.01)
        assert circuit.node("gate").voltage == pytest.approx(0.02)
        assert circuit.has_element("J_drain")
        assert circuit.has_element("J_source")
        assert circuit.has_element("C_gate")

    def test_background_charge_override(self, standard_transistor):
        circuit = standard_transistor.build_circuit(
            background_charge=0.3 * E_CHARGE)
        assert circuit.node("dot").offset_charge == pytest.approx(0.3 * E_CHARGE)

    def test_second_gate_circuit(self):
        device = SETTransistor(second_gate_capacitance=0.5e-18)
        circuit = device.build_circuit(second_gate_voltage=0.01)
        assert circuit.has_element("C_gate2")
        assert circuit.node("gate2").voltage == pytest.approx(0.01)


class TestCharacteristics:
    def test_id_vg_is_periodic_with_e_over_cg(self, standard_transistor):
        period = standard_transistor.gate_period
        gates = np.linspace(0.0, 3.0 * period, 90, endpoint=False)
        _, currents = standard_transistor.id_vg(gates, drain_voltage=0.002,
                                                temperature=1.0)
        analysis = analyze_oscillations(gates, currents)
        assert analysis.period == pytest.approx(period, rel=0.05)

    def test_id_vd_shows_blockade_then_conduction(self, standard_transistor):
        drains = np.linspace(0.0, 0.1, 21)
        _, currents = standard_transistor.id_vd(drains, gate_voltage=0.0,
                                                temperature=0.1)
        blockaded = currents[drains < 0.5 * standard_transistor.blockade_voltage]
        conducting = currents[drains > 1.5 * standard_transistor.blockade_voltage]
        assert np.all(np.abs(blockaded) < 1e-14)
        assert np.all(conducting > 1e-10)

    def test_conductance_peaks_at_degeneracy(self, standard_transistor):
        period = standard_transistor.gate_period
        gates = np.array([0.0, 0.5 * period])
        _, conductances = standard_transistor.conductance_vg(gates, temperature=0.5)
        assert conductances[1] > 10.0 * max(conductances[0], 1e-15)
