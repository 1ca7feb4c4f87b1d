"""Tests for repro.constants."""

import math

import pytest

from repro.constants import (
    BOLTZMANN,
    E_CHARGE,
    HBAR,
    PLANCK,
    R_QUANTUM,
    charging_energy,
    max_operating_temperature,
    thermal_energy,
)


class TestConstantValues:
    def test_elementary_charge_is_exact_si_value(self):
        assert E_CHARGE == pytest.approx(1.602176634e-19, rel=0.0)

    def test_boltzmann_is_exact_si_value(self):
        assert BOLTZMANN == pytest.approx(1.380649e-23, rel=0.0)

    def test_planck_is_exact_si_value(self):
        assert PLANCK == pytest.approx(6.62607015e-34, rel=0.0)

    def test_hbar_is_planck_over_two_pi(self):
        assert HBAR == pytest.approx(PLANCK / (2.0 * math.pi), rel=1e-15)

    def test_resistance_quantum_is_about_25_8_kohm(self):
        assert R_QUANTUM == pytest.approx(25812.807, rel=1e-5)


class TestChargingEnergy:
    def test_one_attofarad_island(self):
        # e^2 / (2 * 1 aF) = 1.28e-20 J ~ 80 meV
        assert charging_energy(1e-18) == pytest.approx(E_CHARGE**2 / 2e-18, rel=1e-12)

    def test_scales_inversely_with_capacitance(self):
        assert charging_energy(1e-18) == pytest.approx(2.0 * charging_energy(2e-18))

    def test_rejects_zero_capacitance(self):
        with pytest.raises(ValueError):
            charging_energy(0.0)

    def test_rejects_negative_capacitance(self):
        with pytest.raises(ValueError):
            charging_energy(-1e-18)


class TestThermalEnergy:
    def test_room_temperature(self):
        assert thermal_energy(300.0) == pytest.approx(300.0 * BOLTZMANN)

    def test_zero_temperature(self):
        assert thermal_energy(0.0) == 0.0

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_energy(-1.0)


class TestMaxOperatingTemperature:
    def test_definition(self):
        capacitance = 1e-18
        expected = charging_energy(capacitance) / (40.0 * BOLTZMANN)
        assert max_operating_temperature(capacitance) == pytest.approx(expected)

    def test_smaller_capacitance_means_higher_temperature(self):
        assert max_operating_temperature(0.1e-18) > max_operating_temperature(1e-18)

    def test_room_temperature_needs_sub_attofarad_capacitance(self):
        # The paper: room temperature operation requires few-nanometre
        # structures, i.e. total capacitances well below 1 aF.
        assert max_operating_temperature(1e-18) < 300.0
        assert max_operating_temperature(0.05e-18) > 300.0

    def test_custom_margin(self):
        relaxed = max_operating_temperature(1e-18, margin=10.0)
        strict = max_operating_temperature(1e-18, margin=100.0)
        assert relaxed > strict

    def test_rejects_non_positive_margin(self):
        with pytest.raises(ValueError):
            max_operating_temperature(1e-18, margin=0.0)
