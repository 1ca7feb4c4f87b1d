"""The tiers against each other.

``analytic`` solves two blended three-state windows; ``master`` solves the
whole charge chain.  Their deviation is not one tolerance but an envelope
in ``kT / E_C``: rounding-level at low temperature, growing as thermal
charge states beyond the windows fill.  Both tiers evaluate device batches
(``Engine.solve_devices``), so the envelope costs two array calls.

The stochastic tiers, ``montecarlo`` and ``ensemble``, simulate the same
sequential-tunnelling physics as ``master``, so on random orthodox SETs
their estimates must lie within their own error bars of the exact current.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.engines import DeviceTable, SweepAxes, get_engine

#: Analytic-vs-master deviation (fraction of the peak current) on the
#: reference SET, 33 gate points over one period at V_d = 10 mV, as
#: (floor, ceiling).  Measured 1.0e-17, 3.84e-4, 3.15e-2 and 0.155; the
#: bounds give about 2x headroom either way.
ENVELOPE = {
    0.01: (0.0, 1e-12),
    0.1: (1e-4, 8e-4),
    0.3: (1.5e-2, 6.5e-2),
    1.0: (0.075, 0.32),
}


def deviations(device, thetas, drain, points=33):
    """Peak-relative analytic-vs-master deviation at each ``kT / E_C``."""
    charging = E_CHARGE ** 2 / (2.0 * device.total_capacitance)
    table = DeviceTable(device, {},
                        np.asarray(thetas) * charging / BOLTZMANN)
    gates = np.tile(np.linspace(0.0, device.gate_period, points),
                    (len(table), 1))
    analytic = get_engine("analytic").solve_devices(table, gates, drain)
    exact = get_engine("master").solve_devices(table, gates, drain)
    return (np.abs(analytic - exact).max(axis=1)
            / np.abs(exact).max(axis=1))


def test_analytic_deviation_follows_the_temperature_envelope():
    thetas = sorted(ENVELOPE)
    measured = deviations(SETTransistor(), thetas, 0.01)
    for theta, deviation in zip(thetas, measured):
        floor, ceiling = ENVELOPE[theta]
        assert floor <= deviation <= ceiling, (theta, deviation)
    assert np.all(np.diff(measured) > 0.0)


@pytest.mark.parametrize("second_gate", [1e-18, 3e-18])
@pytest.mark.parametrize("theta", [0.005, 0.02])
def test_grounded_second_gate_loads_both_tiers_alike(second_gate, theta):
    # The second gate adds to C_sigma; at low kT/E_C the analytic windows
    # hold every occupied state, so the tiers agree to rounding.
    device = SETTransistor(second_gate_capacitance=second_gate,
                           drain_capacitance=0.7e-18)
    assert deviations(device, [theta], 5e-3)[0] <= 1e-9
    # The scalar session path maps the device the same way.
    temperature = theta * E_CHARGE ** 2 \
        / (2.0 * device.total_capacitance) / BOLTZMANN
    axes = SweepAxes(np.linspace(0.0, device.gate_period, 9), 5e-3)
    analytic = get_engine("analytic").bind(
        device, temperature=temperature).sweep(axes).currents
    exact = get_engine("master").bind(
        device, temperature=temperature).sweep(axes).currents
    assert np.abs(analytic - exact).max() <= 1e-9 * np.abs(exact).max()


#: Monte-Carlo budget per gate point (estimate and warm-up events) and the
#: ensemble engine's replica count.
MC_EVENTS = 4_000
MC_WARMUP = 400
MC_REPLICAS = 16

#: Allowance beside the 3-sigma bound, as a fraction of the device's peak
#: current over one gate period.  A ten-block or sixteen-replica spread is
#: itself uncertain, so its 3-sigma tails are Student-like: on 1 200 random
#: points per engine, 0.9-1.8% of the estimates fell outside 3 sigma alone
#: and at most 0.08% outside 3 sigma plus this floor (about 4% odds that
#: some of this test's 48 comparisons do under an arbitrary seed).
FLOOR = 0.02


@st.composite
def orthodox_sets(draw):
    """A random SET in the orthodox regime, a drain bias and gate points.

    Capacitances 0.5-3 aF, resistances 100 kOhm-10 MOhm (far above the
    resistance quantum), ``kT / E_C`` 0.02-0.5, a drain bias of 0.1-1
    ``e / C_sigma``, three gate points inside one period and a Monte-Carlo
    seed (one per example: a seed shared by similar examples would repeat
    the same fluctuation).
    """
    capacitance = st.floats(0.5e-18, 3e-18)
    resistance = st.floats(5.0, 7.0).map(lambda exponent: 10.0 ** exponent)
    device = SETTransistor(drain_capacitance=draw(capacitance),
                           source_capacitance=draw(capacitance),
                           gate_capacitance=draw(capacitance),
                           drain_resistance=draw(resistance),
                           source_resistance=draw(resistance))
    theta = draw(st.floats(0.02, 0.5))
    drain = draw(st.floats(0.1, 1.0)) * E_CHARGE / device.total_capacitance
    gates = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                 max_size=3)))
    return (device, theta, drain, np.asarray(gates) * device.gate_period,
            draw(st.integers(0, 2 ** 31)))


@seed(26)
@settings(max_examples=8, deadline=None)
@given(case=orthodox_sets())
def test_monte_carlo_tiers_agree_with_the_master_equation(case):
    device, theta, drain, gates, mc_seed = case
    temperature = theta * E_CHARGE ** 2 \
        / (2.0 * device.total_capacitance) / BOLTZMANN
    master = get_engine("master").bind(device, temperature=temperature)
    peak = np.abs(master.sweep(SweepAxes(
        np.linspace(0.0, device.gate_period, 33), drain)).currents).max()
    axes = SweepAxes(gates, drain)
    exact = master.sweep(axes).currents
    for engine, replicas in (("montecarlo", 0), ("ensemble", MC_REPLICAS)):
        estimate = get_engine(engine).bind(
            device, temperature=temperature, seed=mc_seed,
            max_events=MC_EVENTS, warmup_events=MC_WARMUP,
            replicas=replicas).sweep(axes)
        bound = 3.0 * estimate.stderrs + FLOOR * peak
        assert np.all(np.abs(estimate.currents - exact) <= bound), (
            engine, estimate.currents, estimate.stderrs, exact, peak)
