"""Tests for AM/FM coded (background-charge immune) logic."""

import pytest

from repro.constants import E_CHARGE
from repro.devices import AMFMSET, SETTransistor
from repro.errors import EncodingError
from repro.logic import (
    AMCodedSETLogic,
    DirectCodedSETLogic,
    FMCodedSETLogic,
    bit_error_rate,
)


@pytest.fixture(scope="module")
def amfm_device():
    return AMFMSET(junction_capacitance=1e-18, junction_resistance=1e6,
                   gate_capacitance_low=1.5e-18, gate_capacitance_high=3e-18)


@pytest.fixture(scope="module")
def fm_logic(amfm_device):
    return FMCodedSETLogic(amfm_device, drain_voltage=0.002, temperature=1.0,
                           periods=3.0, points_per_period=16)


@pytest.fixture(scope="module")
def am_logic(amfm_device):
    return AMCodedSETLogic(amfm_device, drain_voltage=0.02, temperature=1.0,
                           periods=3.0, points_per_period=16)


class TestFMCoding:
    def test_clean_decoding(self, fm_logic):
        for bit in (0, 1):
            assert fm_logic.transmit_and_decode(bit, 0.0).bit == bit

    def test_immune_to_strong_background_charge(self, fm_logic):
        for offset in (-0.5, -0.25, 0.17, 0.33, 0.5):
            for bit in (0, 1):
                assert fm_logic.is_correct(bit, offset * E_CHARGE)

    def test_measured_period_matches_the_configuration(self, fm_logic, amfm_device):
        reading = fm_logic.transmit_and_decode(1, 0.21 * E_CHARGE)
        assert reading.observable == pytest.approx(amfm_device.period_for(1), rel=0.1)

    def test_decision_requires_several_periods(self, fm_logic):
        # The speed penalty the paper concedes for AM/FM coding.
        assert fm_logic.decision_periods >= 2.0

    def test_too_short_observation_rejected(self, amfm_device):
        with pytest.raises(EncodingError):
            FMCodedSETLogic(amfm_device, 0.002, 1.0, periods=1.0)


class TestAMCoding:
    def test_clean_decoding(self, am_logic):
        for bit in (0, 1):
            assert am_logic.transmit_and_decode(bit, 0.0).bit == bit

    def test_immune_to_background_charge(self, am_logic):
        for offset in (-0.4, 0.25, 0.5):
            for bit in (0, 1):
                assert am_logic.is_correct(bit, offset * E_CHARGE)

    def test_amplitudes_differ_between_bits(self, am_logic):
        zero = am_logic.transmit_and_decode(0, 0.0).observable
        one = am_logic.transmit_and_decode(1, 0.0).observable
        assert zero != pytest.approx(one, rel=1e-3)


class TestBitErrorRates:
    def test_direct_coding_fails_where_fm_survives(self, fm_logic):
        transistor = SETTransistor(junction_capacitance=1e-18,
                                   gate_capacitance=2e-18,
                                   junction_resistance=1e6)
        direct = DirectCodedSETLogic(transistor, temperature=0.5)
        direct_result = bit_error_rate(direct, trials=24, seed=5)
        fm_result = bit_error_rate(fm_logic, trials=12, seed=5)
        # The paper's core claim (experiment E2): direct coding breaks under
        # random background charges, FM coding does not.
        assert direct_result.error_rate > 0.2
        assert fm_result.error_rate == 0.0

    def test_error_rate_result_metadata(self, fm_logic):
        result = bit_error_rate(fm_logic, trials=4, seed=1)
        assert result.encoding == "fm"
        assert result.trials == 4
        assert result.decision_periods == fm_logic.decision_periods

    def test_invalid_trial_count(self, fm_logic):
        with pytest.raises(EncodingError):
            bit_error_rate(fm_logic, trials=0)
