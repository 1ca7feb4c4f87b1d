"""Tests for the SET-MOS multiple-valued quantizer (experiment E5 machinery)."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.hybrid import SETMOSQuantizer


@pytest.fixture(scope="module")
def quantizer():
    return SETMOSQuantizer()


class TestLiteralGate:
    def test_literal_curve_is_periodic(self, quantizer):
        period = quantizer.input_period
        inputs = np.linspace(0.0, 2.0 * period, 33)
        _, literal = quantizer.literal_transfer(inputs)
        half = len(inputs) // 2
        assert np.allclose(literal[:half], literal[half:-1], atol=3e-3)


class TestStaircase:
    def test_detects_one_level_per_period(self, quantizer):
        analysis = quantizer.level_analysis(input_span_periods=4.0,
                                            points_per_period=16)
        assert 4 <= analysis.level_count <= 6

    def test_levels_are_spaced_by_the_gate_period(self, quantizer):
        analysis = quantizer.level_analysis(input_span_periods=4.0,
                                            points_per_period=16)
        assert analysis.separation == pytest.approx(quantizer.input_period, rel=0.15)
        assert analysis.uniformity > 0.7

    def test_staircase_is_monotonic(self, quantizer):
        assert quantizer.staircase_quality(input_span_periods=4.0,
                                           points_per_period=16) > 0.9

    def test_quantize_single_value_lies_on_the_curve(self, quantizer):
        period = quantizer.input_period
        inputs = np.linspace(0.0, 2.0 * period, 9)
        _, staircase = quantizer.transfer_curve(inputs)
        value = quantizer.quantize(inputs[4])
        assert value == pytest.approx(staircase[4], abs=2e-3)

    def test_too_short_span_rejected(self, quantizer):
        with pytest.raises(AnalysisError):
            quantizer.level_analysis(input_span_periods=1.0)


class TestDeviceComparison:
    def test_three_devices_do_the_work_of_dozens(self, quantizer):
        assert quantizer.device_count == 3
        assert quantizer.cmos_equivalent_device_count(4.0) >= 30
        assert quantizer.device_advantage(4.0) > 5.0
