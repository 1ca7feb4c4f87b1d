"""How far the analytic tier strays from the exact tier, and where.

``analytic`` solves two blended three-state windows; ``master`` solves the
whole charge chain.  Their deviation is not one tolerance but an envelope
in ``kT / E_C``: rounding-level at low temperature, growing as thermal
charge states beyond the windows fill.  Both tiers evaluate device batches
(``Engine.solve_devices``), so the envelope costs two array calls.
"""

import numpy as np
import pytest

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
