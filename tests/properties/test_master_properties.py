"""Physical properties of the ``master`` tier on random devices.

Sequential tunnelling through one island, inside the tier's validity
regime: junction resistances well above the resistance quantum, ``kT``
from zero to one charging energy, drains up to a few ``e / C_Σ``.  The
properties follow from orthodox theory (Wasshuber, *Computational
Single-Electronics*, ch. 3):

* the current is periodic in the gate voltage with period ``e / C_g``;
* at zero offset, charge conjugation (every voltage and every electron
  number reversed) reverses the current: ``I(-V_d, -V_g) = -I(V_d, V_g)``,
  so ``I(-V_d) = -I(V_d)`` at ``V_g = 0``;
* no current flows at zero bias;
* at ``V_g = 0`` and zero offset the current is blockaded for
  ``|V_d| < e / 2 C_Σ`` as ``T -> 0``: exactly zero at ``T = 0``.

Every point runs on the closed-form birth-death chain of the ``master``
sessions, so the properties cost a few chain batches each.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine

#: Agreement of two currents that theory says are equal, relative to the
#: device's natural current scale ``e / (R_Σ C_Σ)``: the two sides only
#: round differently (measured on 400 random devices: below 3e-15).
RELATIVE = 1e-12

devices = st.builds(
    SETTransistor,
    junction_capacitance=st.floats(min_value=3e-19, max_value=4e-18),
    drain_capacitance=st.floats(min_value=3e-19, max_value=4e-18),
    gate_capacitance=st.floats(min_value=3e-19, max_value=5e-18),
    junction_resistance=st.floats(min_value=1e5, max_value=1e8),
    source_resistance=st.floats(min_value=1e5, max_value=1e8))
#: ``kT / E_C``: zero or from 0.01 to 1.
thetas = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
#: Drain and gate biases in units of ``e / C_Σ`` and of the gate period.
drains = st.floats(min_value=-3.0, max_value=3.0)
gates = st.floats(min_value=-1.0, max_value=1.5)


def temperature(device, theta):
    """The temperature at which ``kT`` is ``theta`` charging energies."""
    return theta * E_CHARGE ** 2 / (2.0 * device.total_capacitance
                                    * BOLTZMANN)


def scale(device):
    """The natural current scale ``e / (R_Σ C_Σ)`` of ``device``."""
    return E_CHARGE / ((device.r_drain + device.r_source)
                       * device.total_capacitance)


def sweep(device, theta, drain, gate_voltages):
    """``master`` sweep currents of ``device`` at ``kT / E_C = theta``."""
    session = get_engine("master").bind(
        device, temperature=temperature(device, theta))
    return session.sweep(SweepAxes(gate_voltages, drain)).currents


@given(device=devices, theta=thetas, drain=drains, gate=gates,
       offset=st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_current_is_periodic_in_the_gate(device, theta, drain, gate, offset):
    device = dataclasses.replace(device, background_charge=offset * E_CHARGE)
    period = device.gate_period
    base, shifted = sweep(device, theta, drain * E_CHARGE
                          / device.total_capacitance,
                          [gate * period, (gate + 1.0) * period])
    assert abs(base - shifted) <= RELATIVE * scale(device)


@given(device=devices, theta=thetas, drain=drains, gate=gates)
@settings(max_examples=60, deadline=None)
@example(device=SETTransistor(), theta=0.1, drain=0.7, gate=0.0)
def test_reversed_biases_reverse_the_current(device, theta, drain, gate):
    volts = drain * E_CHARGE / device.total_capacitance
    gate_voltage = gate * device.gate_period
    (forward,) = sweep(device, theta, volts, [gate_voltage])
    (backward,) = sweep(device, theta, -volts, [-gate_voltage])
    assert abs(forward + backward) <= RELATIVE * scale(device)


@given(device=devices, theta=thetas, gate=gates,
       offset=st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_zero_bias_carries_no_current(device, theta, gate, offset):
    device = dataclasses.replace(device, background_charge=offset * E_CHARGE)
    (current,) = sweep(device, theta, 0.0, [gate * device.gate_period])
    assert abs(current) <= RELATIVE * scale(device)


@given(device=devices,
       fraction=st.floats(min_value=-0.8, max_value=0.8))
@settings(max_examples=60, deadline=None)
def test_the_current_is_blockaded_below_half_a_charging_voltage(device,
                                                                fraction):
    drain = fraction * E_CHARGE / (2.0 * device.total_capacitance)
    cold, colder = (sweep(device, theta, drain, [0.0])[0]
                    for theta in (0.01, 0.0))
    assert colder == 0.0
    # At kT = E_C / 100 the smallest barrier is still >= E_C / 5:
    # suppressed by more than exp(-20).
    assert abs(cold) <= 1e-8 * scale(device)
