"""Bit-for-bit equivalence of the mask-free rate kernel with a mask oracle.

:func:`mask_orthodox_rate_vec` is the earlier, mask-based implementation of
:func:`repro.core.rates.orthodox_rate_vec`, kept here verbatim: it selects
every branch with a boolean mask and evaluates it on the gathered elements
only.  The kernel in ``src`` evaluates the general form on the whole array
and overwrites the limit branches, so both must agree exactly, on every
branch, for scalar and per-element temperatures, and without raising a
floating-point exception on the way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.core.rates import orthodox_rate, orthodox_rate_vec
from repro.errors import ReproError

_EXPANSION_THRESHOLD = 1e-9
_EXP_OVERFLOW = 500.0


def mask_orthodox_rate_vec(delta_f, resistance, temperature, out=None):
    """The mask-based kernel: one gather and one scatter per branch."""
    if np.ndim(temperature) != 0:
        return _mask_orthodox_rate_vec_temperatures(delta_f, resistance,
                                                    temperature, out)
    df = np.asarray(delta_f, dtype=float)
    res = np.asarray(resistance, dtype=float)
    if np.any(res <= 0.0):
        raise ReproError("tunnel resistances must be positive")
    if temperature < 0.0:
        raise ReproError(f"temperature must be non-negative, got {temperature!r}")

    prefactor = 1.0 / (E_CHARGE**2 * res)
    df, prefactor = np.broadcast_arrays(df, prefactor)
    if out is None:
        out = np.empty(df.shape, dtype=float)

    if temperature == 0.0:
        np.multiply(df, -prefactor, out=out)
        out[df >= 0.0] = 0.0
        return out

    thermal = BOLTZMANN * temperature
    x = df / thermal
    small = np.abs(x) < _EXPANSION_THRESHOLD
    underflow = x < -_EXP_OVERFLOW
    general = ~(small | underflow | (x > _EXP_OVERFLOW))

    out[...] = 0.0  # the x > _EXP_OVERFLOW branch
    out[general] = prefactor[general] * (-df[general]) / (1.0 - np.exp(x[general]))
    out[small] = prefactor[small] * thermal * (1.0 - 0.5 * x[small])
    out[underflow] = -df[underflow] * prefactor[underflow]
    return out


def _mask_orthodox_rate_vec_temperatures(delta_f, resistance, temperature,
                                         out):
    df = np.asarray(delta_f, dtype=float)
    res = np.asarray(resistance, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if np.any(res <= 0.0):
        raise ReproError("tunnel resistances must be positive")
    if np.any(temperature < 0.0):
        raise ReproError("temperatures must be non-negative")

    prefactor = 1.0 / (E_CHARGE**2 * res)
    df, prefactor, temperature = np.broadcast_arrays(df, prefactor,
                                                     temperature)
    if out is None:
        out = np.empty(df.shape, dtype=float)

    frozen = temperature == 0.0
    thermal = BOLTZMANN * temperature
    with np.errstate(divide="ignore", invalid="ignore"):
        x = df / thermal
    small = ~frozen & (np.abs(x) < _EXPANSION_THRESHOLD)
    underflow = ~frozen & (x < -_EXP_OVERFLOW)
    general = ~(frozen | small | underflow | (x > _EXP_OVERFLOW))

    out[...] = 0.0  # the x > _EXP_OVERFLOW branch and uphill T = 0 events
    out[general] = prefactor[general] * (-df[general]) / (1.0 - np.exp(x[general]))
    out[small] = prefactor[small] * thermal[small] * (1.0 - 0.5 * x[small])
    out[underflow] = -df[underflow] * prefactor[underflow]
    downhill = frozen & (df < 0.0)
    out[downhill] = df[downhill] * -prefactor[downhill]
    return out


#: Branches an element can be drawn from (``dF / kT`` ranges); ``T = 0``
#: elements are drawn separately.
BRANCHES = ("zero", "series", "overflow", "underflow", "general")


def exponents(rng, branches, size):
    """``dF / kT`` per element, each from a branch drawn from ``branches``."""
    pick = rng.choice(branches, size=size)
    sign = rng.choice([-1.0, 1.0], size=size)
    x = sign * 10.0 ** rng.uniform(-9.0, np.log10(_EXP_OVERFLOW), size=size)
    x[pick == "zero"] = 0.0
    series = pick == "series"
    x[series] = sign[series] * 10.0 ** rng.uniform(-30.0, -9.0,
                                                   size=series.sum())
    beyond = 10.0 ** rng.uniform(np.log10(_EXP_OVERFLOW), 5.0, size=size)
    x[pick == "overflow"] = beyond[pick == "overflow"]
    x[pick == "underflow"] = -beyond[pick == "underflow"]
    edges = rng.random(size) < 0.02
    x[edges] = rng.choice([500.0, -500.0, 1e-9, -1e-9], size=edges.sum())
    return x


def in_buffer(rng, values, offset):
    """``values`` copied into a larger buffer at ``offset`` (a view)."""
    buffer = rng.normal(size=values.size + offset + 7)
    view = buffer[offset:offset + values.size]
    view[...] = values
    return view


cases = st.tuples(st.integers(1, 1000), st.integers(0, 64),
                  st.integers(0, 2**32 - 1),
                  st.lists(st.sampled_from(BRANCHES), min_size=1,
                           max_size=5, unique=True))


class TestMaskFreeKernelEqualsMaskOracle:
    @given(case=cases, temperature=st.sampled_from([0.0, 0.02, 1.0, 300.0]),
           use_out=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_scalar_temperature(self, case, temperature, use_out):
        size, offset, seed, branches = case
        rng = np.random.default_rng(seed)
        x = exponents(rng, branches, size)
        thermal = BOLTZMANN * (temperature or 1.0)
        delta_f = in_buffer(rng, x * thermal, offset)
        resistance = in_buffer(rng, 10.0 ** rng.uniform(4.0, 9.0, size),
                               offset // 2)
        out = in_buffer(rng, np.zeros(size), offset + 3) if use_out else None
        with np.errstate(all="raise"):
            expected = mask_orthodox_rate_vec(delta_f, resistance,
                                              temperature)
            actual = orthodox_rate_vec(delta_f, resistance, temperature,
                                       out=out)
        assert actual is out or out is None
        assert np.array_equal(actual, expected)

    @given(case=cases, frozen_share=st.floats(0.0, 1.0),
           use_out=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_per_element_temperatures(self, case, frozen_share, use_out):
        size, offset, seed, branches = case
        rng = np.random.default_rng(seed)
        x = exponents(rng, branches, size)
        temperatures = 10.0 ** rng.uniform(-2.0, 2.5, size)
        temperatures[rng.random(size) < frozen_share] = 0.0
        thermal = BOLTZMANN * np.where(temperatures > 0.0, temperatures, 1.0)
        delta_f = in_buffer(rng, x * thermal, offset)
        resistance = in_buffer(rng, 10.0 ** rng.uniform(4.0, 9.0, size),
                               offset // 3)
        temperatures = in_buffer(rng, temperatures, offset + 1)
        out = in_buffer(rng, np.zeros(size), offset + 3) if use_out else None
        with np.errstate(all="raise"):
            expected = mask_orthodox_rate_vec(delta_f, resistance,
                                              temperatures)
            actual = orthodox_rate_vec(delta_f, resistance, temperatures,
                                       out=out)
        assert actual is out or out is None
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_broadcast_scalar_resistance_and_zero_d_input(self, temperature):
        thermal = BOLTZMANN * 1.0
        deltas = np.array([0.0, 1e-12, -3.0, 2.0, 600.0, -600.0]) * thermal
        with np.errstate(all="raise"):
            assert np.array_equal(
                orthodox_rate_vec(deltas, 1e6, temperature),
                mask_orthodox_rate_vec(deltas, 1e6, temperature))
            for delta in deltas:
                scalar = orthodox_rate_vec(delta, 1e6, temperature)
                assert scalar.shape == ()
                assert scalar == mask_orthodox_rate_vec(delta, 1e6,
                                                        temperature)

    def test_temperature_grid_broadcast(self):
        deltas = np.linspace(-3.0, 3.0, 13) * BOLTZMANN
        temperatures = np.array([[0.0], [0.5], [2.0]])
        with np.errstate(all="raise"):
            assert np.array_equal(
                orthodox_rate_vec(deltas, 1e6, temperatures),
                mask_orthodox_rate_vec(deltas, 1e6, temperatures))


class TestNaNInputsAreRejected:
    @pytest.mark.parametrize("resistance, temperature", [
        (np.array([np.nan, 1e6]), 1.0),
        (np.array([1e6, 1e6]), np.nan),
        (np.array([1e6, 1e6]), np.array([1.0, np.nan])),
        (np.array([np.nan, 1e6]), np.array([1.0, 1.0])),
    ])
    def test_array_kernel(self, resistance, temperature):
        with pytest.raises(ReproError):
            orthodox_rate_vec(np.array([-1e-21, 1e-21]), resistance,
                              temperature)

    @pytest.mark.parametrize("resistance, temperature", [
        (float("nan"), 1.0), (1e6, float("nan"))])
    def test_scalar_reference(self, resistance, temperature):
        with pytest.raises(ReproError):
            orthodox_rate(-1e-21, resistance, temperature)
