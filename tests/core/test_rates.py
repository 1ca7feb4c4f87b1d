"""Tests for the orthodox and co-tunnelling rate expressions."""

import pytest

from repro.constants import BOLTZMANN, E_CHARGE, HBAR
from repro.core import (
    attempt_frequency,
    charging_time,
    cotunneling_rate,
    detailed_balance_ratio,
    heisenberg_tunnel_time,
    orthodox_rate,
    tunnel_traversal_time,
)
from repro.errors import ReproError
from repro.units import electronvolt


class TestOrthodoxRate:
    def test_zero_temperature_downhill(self):
        delta_f = -1e-21
        rate = orthodox_rate(delta_f, 1e6, 0.0)
        assert rate == pytest.approx(-delta_f / (E_CHARGE**2 * 1e6))

    def test_zero_temperature_uphill_is_forbidden(self):
        assert orthodox_rate(+1e-21, 1e6, 0.0) == 0.0

    def test_zero_energy_finite_temperature_limit(self):
        temperature = 1.0
        rate = orthodox_rate(0.0, 1e6, temperature)
        expected = BOLTZMANN * temperature / (E_CHARGE**2 * 1e6)
        assert rate == pytest.approx(expected, rel=1e-6)

    def test_rate_scales_inversely_with_resistance(self):
        assert orthodox_rate(-1e-21, 1e6, 1.0) == \
            pytest.approx(10.0 * orthodox_rate(-1e-21, 1e7, 1.0))

    def test_thermally_activated_uphill_rate(self):
        delta_f = 5.0 * BOLTZMANN * 1.0
        rate = orthodox_rate(delta_f, 1e6, 1.0)
        assert rate > 0.0
        assert rate < orthodox_rate(-delta_f, 1e6, 1.0)

    def test_large_uphill_energy_underflows_to_zero(self):
        assert orthodox_rate(1e-18, 1e6, 0.001) == 0.0

    def test_large_downhill_energy_matches_t0_form(self):
        delta_f = -1e-18
        assert orthodox_rate(delta_f, 1e6, 0.001) == \
            pytest.approx(-delta_f / (E_CHARGE**2 * 1e6), rel=1e-6)

    def test_continuity_across_zero_energy(self):
        temperature = 2.0
        just_below = orthodox_rate(-1e-30, 1e6, temperature)
        just_above = orthodox_rate(+1e-30, 1e6, temperature)
        at_zero = orthodox_rate(0.0, 1e6, temperature)
        assert just_below == pytest.approx(at_zero, rel=1e-6)
        assert just_above == pytest.approx(at_zero, rel=1e-6)

    def test_detailed_balance(self):
        temperature = 4.2
        delta_f = 3e-23
        forward = orthodox_rate(delta_f, 1e6, temperature)
        backward = orthodox_rate(-delta_f, 1e6, temperature)
        assert forward / backward == pytest.approx(
            detailed_balance_ratio(delta_f, temperature), rel=1e-9)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ReproError):
            orthodox_rate(-1e-21, 0.0, 1.0)
        with pytest.raises(ReproError):
            orthodox_rate(-1e-21, 1e6, -1.0)
        with pytest.raises(ReproError):
            detailed_balance_ratio(1e-22, 0.0)


class TestCotunnelingRate:
    def test_zero_temperature_cubic_scaling(self):
        e1 = e2 = 1e-21
        small = cotunneling_rate(-1e-23, e1, e2, 1e6, 1e6, 0.0)
        large = cotunneling_rate(-2e-23, e1, e2, 1e6, 1e6, 0.0)
        assert large / small == pytest.approx(8.0, rel=1e-6)

    def test_uphill_forbidden_at_zero_temperature(self):
        assert cotunneling_rate(+1e-23, 1e-21, 1e-21, 1e6, 1e6, 0.0) == 0.0

    def test_requires_positive_intermediate_energies(self):
        assert cotunneling_rate(-1e-23, -1e-22, 1e-21, 1e6, 1e6, 0.0) == 0.0
        assert cotunneling_rate(-1e-23, 1e-21, 0.0, 1e6, 1e6, 0.0) == 0.0

    def test_second_order_in_resistance(self):
        base = cotunneling_rate(-1e-23, 1e-21, 1e-21, 1e6, 1e6, 0.0)
        higher = cotunneling_rate(-1e-23, 1e-21, 1e-21, 1e7, 1e7, 0.0)
        assert base / higher == pytest.approx(100.0, rel=1e-6)

    def test_much_slower_than_first_order_outside_blockade(self):
        # Co-tunnelling is a correction, not the dominant channel, whenever
        # first-order tunnelling is allowed.
        delta_f = -1e-22
        first_order = orthodox_rate(delta_f, 1e6, 0.0)
        second_order = cotunneling_rate(delta_f, 1e-21, 1e-21, 1e6, 1e6, 0.0)
        assert second_order < 0.05 * first_order

    def test_finite_temperature_enhances_rate(self):
        cold = cotunneling_rate(-1e-23, 1e-21, 1e-21, 1e6, 1e6, 0.01)
        warm = cotunneling_rate(-1e-23, 1e-21, 1e-21, 1e6, 1e6, 1.0)
        assert warm > cold

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ReproError):
            cotunneling_rate(-1e-23, 1e-21, 1e-21, 0.0, 1e6, 1.0)
        with pytest.raises(ReproError):
            cotunneling_rate(-1e-23, 1e-21, 1e-21, 1e6, 1e6, -1.0)


class TestTimescales:
    def test_traversal_time_is_sub_picosecond(self):
        # The paper: tunnelling "is a sub-Pico second process".
        tau = tunnel_traversal_time(electronvolt(1.0), barrier_width=2e-9)
        assert tau < 1e-12
        assert tau > 1e-16

    def test_heisenberg_estimate_is_sub_picosecond(self):
        assert heisenberg_tunnel_time(electronvolt(0.1)) < 1e-12

    def test_heisenberg_estimate_definition(self):
        barrier = electronvolt(1.0)
        assert heisenberg_tunnel_time(barrier) == pytest.approx(HBAR / barrier)

    def test_charging_time_is_rc(self):
        assert charging_time(1e6, 1e-18) == pytest.approx(1e-12)

    def test_attempt_frequency_is_inverse_rc(self):
        assert attempt_frequency(1e6, 1e-18) == pytest.approx(1e12)

    def test_traversal_time_shrinks_with_barrier_height(self):
        assert tunnel_traversal_time(electronvolt(4.0)) < \
            tunnel_traversal_time(electronvolt(1.0))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ReproError):
            tunnel_traversal_time(0.0)
        with pytest.raises(ReproError):
            heisenberg_tunnel_time(-1.0)
        with pytest.raises(ReproError):
            charging_time(1e6, 0.0)
