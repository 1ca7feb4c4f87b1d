"""Bit-for-bit equivalence of the stacked analytic array path with an oracle.

:func:`oracle_drain_current_array` is the earlier array path of
:class:`repro.compact.set_model.AnalyticSETModel`, kept here verbatim: it
evaluated each of the two blended three-state windows separately, with one
``orthodox_rate_vec`` call per rate, window and state (24 calls and 12
``_in_energies`` calls per evaluation).  The path in ``src`` stacks the
twelve distinct rates into one kernel call and balances both windows in one
pass; every element must come out exactly as before, NaN for NaN.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compact.set_model as set_model
from repro.compact import AnalyticSETModel
from repro.constants import E_CHARGE
from repro.core.rates import orthodox_rate_vec
from repro.devices import SETTransistor
from repro.engines import DeviceTable, get_engine


def oracle_drain_current_array(model, drain_voltage, gate_voltage,
                               source_voltage):
    """The two-window array path: one rate-kernel call per rate."""
    vd, vg, vs = np.broadcast_arrays(np.asarray(drain_voltage, dtype=float),
                                     np.asarray(gate_voltage, dtype=float),
                                     np.asarray(source_voltage, dtype=float))
    induced = model._induced_charge(vd, vg, vs)
    base = np.floor(induced)
    fraction = induced - base
    lower = oracle_window_current_array(model, base, vd, vg, vs)
    upper = oracle_window_current_array(model, base + 1.0, vd, vg, vs)
    blended = (1.0 - fraction) * lower + fraction * upper
    return np.where(fraction <= 1e-12, lower, blended)


def oracle_window_current_array(model, centre, vd, vg, vs):
    """One three-state window over an array of window centres."""
    up_drain, up_source, down_drain, down_source = {}, {}, {}, {}
    for offset in (-1, 0, 1):
        drain_in, source_in = model._in_energies(centre + offset, vd, vg, vs)
        up_drain[offset] = orthodox_rate_vec(drain_in, model.drain_resistance,
                                             model.temperature)
        up_source[offset] = orthodox_rate_vec(source_in,
                                              model.source_resistance,
                                              model.temperature)
        drain_in_below, source_in_below = model._in_energies(
            centre + offset - 1.0, vd, vg, vs)
        down_drain[offset] = orthodox_rate_vec(-drain_in_below,
                                               model.drain_resistance,
                                               model.temperature)
        down_source[offset] = orthodox_rate_vec(-source_in_below,
                                                model.source_resistance,
                                                model.temperature)

    up_centre = up_drain[0] + up_source[0]
    down_upper = down_drain[1] + down_source[1]
    down_centre = down_drain[0] + down_source[0]
    up_lower = up_drain[-1] + up_source[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight_upper = np.where(
            down_upper > 0.0, up_centre / down_upper,
            np.where(up_centre == 0.0, 0.0, np.inf))
        weight_lower = np.where(
            up_lower > 0.0, down_centre / up_lower,
            np.where(down_centre == 0.0, 0.0, np.inf))

        lower_infinite = np.isinf(weight_lower)
        upper_infinite = np.isinf(weight_upper)
        infinite_count = (lower_infinite.astype(float)
                          + upper_infinite.astype(float))
        any_infinite = infinite_count > 0.0
        total = 1.0 + weight_upper + weight_lower
        divisor = np.where(any_infinite, 1.0, total)
        share = np.where(any_infinite, infinite_count, 1.0)
        probability_lower = np.where(any_infinite,
                                     lower_infinite / share,
                                     weight_lower / divisor)
        probability_centre = np.where(any_infinite, 0.0, 1.0 / divisor)
        probability_upper = np.where(any_infinite,
                                     upper_infinite / share,
                                     weight_upper / divisor)

    current = ((probability_centre * down_drain[0]
                - probability_lower * up_drain[-1])
               + (probability_upper * down_drain[1]
                  - probability_centre * up_drain[0]))
    dead = ~any_infinite & (total <= 0.0)
    return np.where(dead, 0.0, E_CHARGE * current)


#: Which model parameters are per-row arrays (the rest stay scalars).
LAYOUTS = ("scalar", "all", "capacitances", "resistances", "temperature",
           "background")

cases = st.tuples(st.integers(1, 48), st.integers(1, 6),
                  st.integers(0, 2**32 - 1), st.sampled_from(LAYOUTS),
                  st.sampled_from([0.0, 0.02, 1.0, 4.2, 300.0]),
                  st.floats(0.0, 1.0))


def model_and_biases(case):
    """A model in the given layout and ``(rows, biases)`` terminal voltages.

    Array parameters have shape ``(rows, 1)`` and broadcast along the bias
    axis, the layout :meth:`AnalyticEngine.solve_devices` builds.  Gate
    voltages reach thousands of volt, so the induced charge spans several
    thousand electrons; drain and source biases take either sign.
    """
    rows, biases, seed, layout, temperature, frozen_share = case
    rng = np.random.default_rng(seed)

    def column(values, name):
        if layout == "all" or name in layout:
            return values[:, None]
        return float(values[0])

    temperatures = 10.0 ** rng.uniform(-2.0, 2.5, rows)
    temperatures[rng.random(rows) < frozen_share] = 0.0
    temperatures[0] = temperature
    model = AnalyticSETModel(
        drain_capacitance=column(10.0 ** rng.uniform(-19.0, -17.0, rows),
                                 "capacitances"),
        source_capacitance=column(10.0 ** rng.uniform(-19.0, -17.0, rows),
                                  "capacitances"),
        gate_capacitance=column(10.0 ** rng.uniform(-19.0, -17.0, rows),
                                "capacitances"),
        drain_resistance=column(10.0 ** rng.uniform(4.0, 8.0, rows),
                                "resistances"),
        source_resistance=column(10.0 ** rng.uniform(4.0, 8.0, rows),
                                 "resistances"),
        background_charge=column(rng.uniform(-3.0, 3.0, rows) * E_CHARGE,
                                 "background"),
        temperature=column(temperatures, "temperature"))
    drains = rng.choice([-1.0, 1.0], (rows, biases)) \
        * 10.0 ** rng.uniform(-6.0, 0.0, (rows, biases))
    gates = rng.choice([-1.0, 1.0], (rows, biases)) \
        * 10.0 ** rng.uniform(-4.0, 3.5, (rows, biases))
    sources = rng.uniform(-0.05, 0.05, (rows, biases))
    drains[rng.random((rows, biases)) < 0.1] = 0.0
    return model, drains, gates, sources


class TestStackedArrayPathEqualsOracle:
    @given(case=cases)
    @settings(max_examples=200, deadline=None)
    def test_drain_current(self, case):
        model, drains, gates, sources = model_and_biases(case)
        expected = oracle_drain_current_array(model, drains, gates, sources)
        actual = model.drain_current(drains, gates, sources)
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected, equal_nan=True)

    @given(case=cases)
    @settings(max_examples=100, deadline=None)
    def test_one_bias_per_row(self, case):
        """Scalar voltages against array parameters: parameter-shaped."""
        model, drains, gates, _ = model_and_biases(case)
        drain, gate = float(drains[0, 0]), float(gates[0, 0])
        expected = oracle_drain_current_array(model, drain, gate, 0.0)
        actual = model._drain_current_array(drain, gate, 0.0)
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected, equal_nan=True)

    @given(case=cases)
    @settings(max_examples=100, deadline=None)
    def test_drain_current_map(self, case):
        model, drains, gates, sources = model_and_biases(case)
        if model.batched:
            model = AnalyticSETModel(temperature=case[4])
        source = float(sources[0, 0])
        expected = oracle_drain_current_array(
            model, drains.reshape(-1, 1), gates.reshape(1, -1),
            np.asarray(source))
        actual = model.drain_current_map(drains.ravel(), gates.ravel(),
                                         source)
        assert actual.shape == (drains.size, gates.size)
        assert np.array_equal(actual, expected, equal_nan=True)

    def test_non_finite_voltages(self):
        model = AnalyticSETModel(temperature=1.0)
        drains = np.array([np.nan, 0.01, np.inf, -np.inf, 0.01])
        gates = np.array([0.02, np.nan, 0.02, 0.02, np.inf])
        with np.errstate(invalid="ignore"):
            actual = model.drain_current(drains, gates)
            expected = oracle_drain_current_array(model, drains, gates, 0.0)
        assert np.array_equal(actual, expected, equal_nan=True)


class CountedRateKernel:
    """Counts the calls of ``orthodox_rate_vec`` made by the compact model."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(set_model, "orthodox_rate_vec", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return orthodox_rate_vec(*args, **kwargs)


class TestOneRateKernelCallPerEvaluation:
    def test_drain_current(self, monkeypatch):
        counter = CountedRateKernel(monkeypatch)
        AnalyticSETModel().drain_current(np.linspace(-0.05, 0.05, 16), 0.03)
        assert counter.calls == 1

    def test_batched_drain_current(self, monkeypatch):
        counter = CountedRateKernel(monkeypatch)
        model = AnalyticSETModel(
            gate_capacitance=np.array([[1e-18], [2e-18], [3e-18]]),
            temperature=np.array([[0.0], [1.0], [4.2]]))
        model.drain_current(np.array([[0.01, -0.01]]), 0.02)
        assert counter.calls == 1

    def test_drain_current_map(self, monkeypatch):
        counter = CountedRateKernel(monkeypatch)
        AnalyticSETModel().drain_current_map(np.linspace(-0.05, 0.05, 4),
                                             np.linspace(0.0, 0.2, 4))
        assert counter.calls == 1

    def test_engine_batch(self, monkeypatch):
        counter = CountedRateKernel(monkeypatch)
        table = DeviceTable(
            base=SETTransistor(),
            columns={"gate_capacitance": np.linspace(1e-18, 3e-18, 8)},
            temperature=np.linspace(0.0, 4.0, 8))
        get_engine("analytic").solve_devices(
            table, np.full((8, 2), 0.02), np.array([0.01, -0.01]))
        assert counter.calls == 1
