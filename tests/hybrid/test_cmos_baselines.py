"""Tests for the behavioural CMOS baselines."""

import pytest

from repro.errors import AnalysisError
from repro.hybrid import (
    CMOSRNGBaseline,
    SETMOSRNGFootprint,
    cmos_periodic_iv_device_count,
    cmos_quantizer_device_count,
    compare_rng,
    setmos_quantizer_device_count,
)


class TestRNGComparison:
    def test_paper_class_numbers(self):
        comparison = compare_rng(set_power=1e-9, set_noise_rms=0.12)
        power, area, noise = comparison.orders_of_magnitude()
        assert power == pytest.approx(7.0, abs=0.5)
        assert area == pytest.approx(7.8, abs=0.5)
        assert noise == pytest.approx(3.9, abs=0.3)

    def test_ratios_definition(self):
        comparison = compare_rng(set_power=1e-9, set_noise_rms=0.1,
                                 cmos=CMOSRNGBaseline(power=1e-2, area=2e-6,
                                                      noise_rms=1e-5))
        assert comparison.power_ratio == pytest.approx(1e7)
        assert comparison.noise_ratio == pytest.approx(1e4)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            compare_rng(set_power=0.0, set_noise_rms=0.1)
        with pytest.raises(AnalysisError):
            CMOSRNGBaseline(power=-1.0)
        with pytest.raises(AnalysisError):
            SETMOSRNGFootprint(area=0.0)


class TestDeviceCounts:
    def test_periodic_iv_replication_needs_many_transistors(self):
        assert cmos_periodic_iv_device_count(1) >= 10
        assert cmos_periodic_iv_device_count(5) > cmos_periodic_iv_device_count(2)

    def test_flash_quantizer_scaling(self):
        assert cmos_quantizer_device_count(2) == 24
        assert cmos_quantizer_device_count(8) > cmos_quantizer_device_count(4)

    def test_setmos_quantizer_uses_three_devices(self):
        assert setmos_quantizer_device_count() == 3

    def test_invalid_counts(self):
        with pytest.raises(AnalysisError):
            cmos_periodic_iv_device_count(0)
        with pytest.raises(AnalysisError):
            cmos_quantizer_device_count(1)
