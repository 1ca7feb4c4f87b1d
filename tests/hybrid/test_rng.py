"""Tests for the single-electron random-number generator (experiment E6 machinery)."""

import numpy as np
import pytest

from repro.analysis import run_randomness_battery
from repro.errors import SimulationError
from repro.hybrid import SETMOSStack, SingleElectronRNG, von_neumann_debias
from repro.compact import AnalyticSETModel, MOSFETModel


@pytest.fixture(scope="module")
def rng_cell():
    return SingleElectronRNG(seed=2024)


class TestVonNeumannDebias:
    def test_mapping(self):
        assert list(von_neumann_debias([0, 1, 1, 0, 0, 0, 1, 1])) == [0, 1]

    def test_removes_bias(self):
        rng = np.random.default_rng(0)
        biased = (rng.uniform(size=4000) < 0.8).astype(int)
        debiased = von_neumann_debias(biased)
        assert abs(debiased.mean() - 0.5) < 0.1

    def test_short_input(self):
        assert von_neumann_debias([1]).size == 0


class TestTelegraphOutput:
    def test_output_swings_by_a_tenth_of_a_volt(self, rng_cell):
        sample = rng_cell.run(sample_count=300, debias=False)
        # The paper quotes a 0.12 V RMS telegraph signal; we require the same
        # order of magnitude.
        assert sample.output_swing > 0.05
        assert 0.02 < sample.output_rms < 0.3

    def test_two_level_output(self, rng_cell):
        sample = rng_cell.run(sample_count=300, debias=False)
        distinct = np.unique(np.round(sample.output_voltages, 6))
        assert len(distinct) == 2

    def test_raw_bits_are_roughly_balanced(self, rng_cell):
        sample = rng_cell.run(sample_count=800, debias=False)
        assert 0.4 < sample.raw_bits.mean() < 0.6

    def test_reproducible_with_seed(self):
        first = SingleElectronRNG(seed=7).run(sample_count=200, debias=False)
        second = SingleElectronRNG(seed=7).run(sample_count=200, debias=False)
        assert np.array_equal(first.raw_bits, second.raw_bits)

    def test_requires_tunable_model(self):
        stack = SETMOSStack(set_model=AnalyticSETModel(),
                            mosfet_model=MOSFETModel())
        with pytest.raises(SimulationError):
            SingleElectronRNG(stack=stack)

    def test_rejects_zero_coupling(self):
        with pytest.raises(SimulationError):
            SingleElectronRNG(trap_coupling=0.0)


class TestBitGeneration:
    def test_requested_bit_count_is_delivered(self, rng_cell):
        bits = rng_cell.generate_bits(500)
        assert bits.size == 500
        assert set(np.unique(bits)).issubset({0, 1})

    def test_stream_passes_the_randomness_battery(self, rng_cell):
        bits = rng_cell.generate_bits(2500)
        report = run_randomness_battery(bits)
        # Allow at most one marginal failure out of six tests.
        assert report.pass_count >= 5

    def test_invalid_bit_count(self, rng_cell):
        with pytest.raises(SimulationError):
            rng_cell.generate_bits(0)


class TestComparison:
    def test_power_area_noise_advantages(self, rng_cell):
        comparison = rng_cell.compare_with_cmos(sample_count=256)
        power_orders, area_orders, noise_orders = comparison.orders_of_magnitude()
        # Paper: seven orders (power), eight orders (area), four orders (noise).
        assert power_orders >= 6.0
        assert area_orders >= 7.0
        assert noise_orders >= 3.0

    def test_power_estimate_is_nanowatt_class(self, rng_cell):
        assert rng_cell.power_estimate() < 1e-6
