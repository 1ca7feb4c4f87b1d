"""Element-wise equivalence of the array-valued rates with the scalar reference.

The vectorized kernel is only trustworthy if ``orthodox_rate_vec`` and
``cotunneling_rate_vec`` reproduce every analytic branch of the scalar
reference implementations — the T = 0 step function, the ``|dF| << kT``
series expansion and both exponential-overflow guards.  These tests sweep
every branch explicitly and then hammer the functions with random inputs.
"""

import math

import numpy as np
import pytest

from repro.constants import BOLTZMANN, E_CHARGE
from repro.core.rates import (
    cotunneling_rate,
    cotunneling_rate_vec,
    orthodox_rate,
    orthodox_rate_vec,
)
from repro.errors import ReproError

RESISTANCE = 1e6
KT_1K = BOLTZMANN * 1.0


def scalar_reference(deltas, resistances, temperature):
    return np.array([orthodox_rate(df, r, temperature)
                     for df, r in zip(deltas, resistances)])


class TestOrthodoxRateVec:
    @pytest.mark.parametrize("temperature", [0.0, 0.05, 1.0, 300.0])
    def test_matches_scalar_on_random_energies(self, temperature):
        rng = np.random.default_rng(99)
        deltas = rng.uniform(-5.0, 5.0, size=200) * KT_1K
        resistances = rng.uniform(1e5, 1e8, size=200)
        vec = orthodox_rate_vec(deltas, resistances, temperature)
        ref = scalar_reference(deltas, resistances, temperature)
        np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=0.0)

    def test_zero_temperature_branches_exactly(self):
        deltas = np.array([-1e-20, -1e-25, 0.0, 1e-25, 1e-20])
        vec = orthodox_rate_vec(deltas, RESISTANCE, 0.0)
        for value, df in zip(vec, deltas):
            assert value == orthodox_rate(float(df), RESISTANCE, 0.0)
        # Uphill and dF = 0 events are exactly forbidden at T = 0.
        assert vec[2] == 0.0 and vec[3] == 0.0 and vec[4] == 0.0

    def test_series_expansion_branch(self):
        # |dF| below 1e-9 kT must use the first-order series, not the ratio.
        temperature = 1.0
        thermal = BOLTZMANN * temperature
        deltas = np.array([0.0, 1e-12, -1e-12, 9e-10, -9e-10]) * thermal
        vec = orthodox_rate_vec(deltas, RESISTANCE, temperature)
        for value, df in zip(vec, deltas):
            assert value == orthodox_rate(float(df), RESISTANCE, temperature)
        # dF = 0 at finite temperature gives exactly kT / e^2 R.
        expected = thermal / (E_CHARGE**2 * RESISTANCE)
        assert vec[0] == pytest.approx(expected, rel=1e-12)

    def test_overflow_branches(self):
        temperature = 1.0
        thermal = BOLTZMANN * temperature
        deltas = np.array([501.0, 1000.0, -501.0, -1000.0]) * thermal
        vec = orthodox_rate_vec(deltas, RESISTANCE, temperature)
        for value, df in zip(vec, deltas):
            assert value == orthodox_rate(float(df), RESISTANCE, temperature)
        assert vec[0] == 0.0 and vec[1] == 0.0  # far uphill: exactly zero
        # Far downhill: exactly the T = 0 expression.
        assert vec[2] == orthodox_rate(float(deltas[2]), RESISTANCE, 0.0)

    def test_scalar_resistance_broadcasts(self):
        deltas = np.linspace(-2.0, 2.0, 11) * KT_1K
        vec = orthodox_rate_vec(deltas, RESISTANCE, 0.3)
        ref = scalar_reference(deltas, [RESISTANCE] * len(deltas), 0.3)
        np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=0.0)

    def test_out_buffer_is_filled_and_returned(self):
        deltas = np.linspace(-2.0, 2.0, 7) * KT_1K
        out = np.empty(7)
        result = orthodox_rate_vec(deltas, RESISTANCE, 1.0, out=out)
        assert result is out
        np.testing.assert_allclose(out, scalar_reference(
            deltas, [RESISTANCE] * 7, 1.0), rtol=1e-12, atol=0.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            orthodox_rate_vec(np.zeros(3), np.array([1e6, -1e6, 1e6]), 1.0)
        with pytest.raises(ReproError):
            orthodox_rate_vec(np.zeros(3), 1e6, -0.5)


class TestOrthodoxRateVecUlpContract:
    """The documented array-vs-scalar contract: NumPy's SIMD ``exp`` may
    differ from ``math.exp`` by an ulp, which costs at most a few ulp in
    the rate wherever ``|dF| >= kT``; every other branch is exact."""

    @pytest.mark.parametrize("temperature", [0.05, 1.0, 300.0])
    def test_within_four_ulp_where_the_exponent_is_not_small(self,
                                                             temperature):
        rng = np.random.default_rng(7)
        x = rng.uniform(1.0, 600.0, size=5000) * rng.choice([-1.0, 1.0],
                                                            size=5000)
        deltas = x * BOLTZMANN * temperature
        resistances = rng.uniform(1e5, 1e8, size=5000)
        vec = orthodox_rate_vec(deltas, resistances, temperature)
        ref = scalar_reference(deltas, resistances, temperature)
        np.testing.assert_array_max_ulp(vec, ref, maxulp=4)

    def test_small_exponents_lose_precision_as_kt_over_df(self):
        # 1 - exp(x) cancels for |x| < 1: both paths lose ~1/|x| ulp.
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, size=5000)
        vec = orthodox_rate_vec(x * KT_1K, RESISTANCE, 1.0)
        ref = scalar_reference(x * KT_1K, [RESISTANCE] * len(x), 1.0)
        ulp = np.abs(vec - ref) / np.spacing(np.maximum(vec, ref))
        assert np.all(ulp * np.minimum(np.abs(x), 1.0) <= 8.0)


class TestOrthodoxRateVecTemperatureArray:
    def test_per_element_temperatures_match_the_scalar_reference(self):
        rng = np.random.default_rng(21)
        temperatures = rng.choice([0.0, 0.05, 1.0, 30.0, 300.0], size=400)
        deltas = rng.uniform(-5.0, 5.0, size=400) * KT_1K
        resistances = rng.uniform(1e5, 1e8, size=400)
        vec = orthodox_rate_vec(deltas, resistances, temperatures)
        ref = np.array([orthodox_rate(df, r, t) for df, r, t in
                        zip(deltas, resistances, temperatures)])
        np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=0.0)
        frozen = temperatures == 0.0
        np.testing.assert_array_equal(vec[frozen], ref[frozen])

    def test_every_branch_is_exact_against_the_scalar_path(self):
        # Step function, series expansion and overflow guards per element.
        deltas = np.array([-1e-20, 0.0, 1e-20, 1e-12 * KT_1K,
                           -1e-12 * KT_1K, 501.0 * KT_1K, -501.0 * KT_1K])
        temperatures = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        vec = orthodox_rate_vec(deltas, RESISTANCE, temperatures)
        for value, df, t in zip(vec, deltas, temperatures):
            assert value == orthodox_rate(float(df), RESISTANCE, float(t))

    def test_temperatures_broadcast_against_energies(self):
        deltas = np.linspace(-2.0, 2.0, 5) * KT_1K
        temperatures = np.array([[0.5], [1.0], [2.0]])
        grid = orthodox_rate_vec(deltas, RESISTANCE, temperatures)
        assert grid.shape == (3, 5)
        for row, temperature in enumerate(temperatures[:, 0]):
            np.testing.assert_allclose(
                grid[row], orthodox_rate_vec(deltas, RESISTANCE,
                                             float(temperature)),
                rtol=1e-15, atol=0.0)

    def test_negative_temperatures_rejected(self):
        with pytest.raises(ReproError):
            orthodox_rate_vec(np.zeros(2), 1e6, np.array([1.0, -0.5]))


class TestCotunnelingRateVec:
    @pytest.mark.parametrize("temperature", [0.0, 0.1, 4.2])
    def test_matches_scalar_on_random_channels(self, temperature):
        rng = np.random.default_rng(7)
        size = 150
        deltas = rng.uniform(-5.0, 5.0, size=size) * KT_1K
        e1 = rng.uniform(-1.0, 3.0, size=size) * KT_1K  # some non-positive
        e2 = rng.uniform(-1.0, 3.0, size=size) * KT_1K
        r1 = rng.uniform(1e5, 1e7, size=size)
        r2 = rng.uniform(1e5, 1e7, size=size)
        vec = cotunneling_rate_vec(deltas, e1, e2, r1, r2, temperature)
        ref = np.array([
            cotunneling_rate(float(df), float(a), float(b), float(ra), float(rb),
                             temperature)
            for df, a, b, ra, rb in zip(deltas, e1, e2, r1, r2)
        ])
        np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=0.0)

    def test_forbidden_channels_are_exactly_zero(self):
        # Non-positive virtual-state energies mean first-order tunnelling is
        # already allowed; the co-tunnelling channel must vanish identically.
        vec = cotunneling_rate_vec(
            np.full(3, -KT_1K), np.array([0.0, -KT_1K, KT_1K]),
            np.array([KT_1K, KT_1K, 0.0]), 1e6, 1e6, 1.0)
        assert vec[0] == 0.0 and vec[1] == 0.0 and vec[2] == 0.0

    def test_zero_temperature_uphill_is_zero(self):
        vec = cotunneling_rate_vec(
            np.array([KT_1K, 0.0, -KT_1K]), KT_1K, KT_1K, 1e6, 1e6, 0.0)
        assert vec[0] == 0.0 and vec[1] == 0.0
        assert vec[2] > 0.0

    def test_thermal_branches_match_scalar(self):
        temperature = 1.0
        thermal = BOLTZMANN * temperature
        deltas = np.array([0.0, 1e-12, 600.0, -600.0, 2.0, -2.0]) * thermal
        vec = cotunneling_rate_vec(deltas, 2 * thermal, 3 * thermal,
                                   1e6, 2e6, temperature)
        for value, df in zip(vec, deltas):
            assert value == cotunneling_rate(float(df), 2 * thermal, 3 * thermal,
                                             1e6, 2e6, temperature)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            cotunneling_rate_vec(np.zeros(2), KT_1K, KT_1K,
                                 np.array([1e6, 0.0]), 1e6, 1.0)
        with pytest.raises(ReproError):
            cotunneling_rate_vec(np.zeros(2), KT_1K, KT_1K, 1e6, 1e6, -1.0)
