"""Automatic windows that follow the temperature.

At high temperature real probability leaves a fixed +-3 window.  The
stacked solve reads each point's mass on its window's boundary states and
widens an automatic window by two electrons per island until that mass is
below :data:`~repro.master.statespace.BOUNDARY_MASS_TOLERANCE`, or reports
a ``master.window_truncated`` degradation when the state cap stops it.
Explicit windows are solved as given.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.devices.set_transistor import DRAIN_JUNCTION, GATE_SOURCE
from repro.master import MasterEquationSolver, build_state_space
from repro.master import statespace, steadystate
from repro.resilience import capture_degradations

#: Half-width of the explicit reference window: at kT = 3 E_C the charge
#: spreads over a few electrons, and the mass 30 electrons out is nil.
WIDE = 30


def temperature_for(device, ratio):
    """The temperature at which kT equals ``ratio`` charging energies."""
    return ratio * E_CHARGE ** 2 / (2.0 * device.total_capacitance
                                    * BOLTZMANN)


def solver_for(device, ratio, drain, **options):
    circuit = device.build_circuit(
        drain_voltage=drain * E_CHARGE / device.total_capacitance)
    return MasterEquationSolver(circuit, temperature_for(device, ratio),
                                **options)


@settings(max_examples=20, deadline=None)
@given(device=st.builds(
           SETTransistor,
           junction_capacitance=st.floats(min_value=5e-19, max_value=3e-18),
           gate_capacitance=st.floats(min_value=5e-19, max_value=4e-18)),
       ratio=st.floats(min_value=0.01, max_value=3.0),
       drain=st.floats(min_value=0.05, max_value=0.5),
       sign=st.sampled_from([-1.0, 1.0]))
def test_automatic_window_matches_a_wide_window(device, ratio, drain, sign):
    drain *= sign
    gates = np.linspace(0.0, device.gate_period, 9)
    with capture_degradations() as events:
        _, automatic = solver_for(device, ratio, drain).sweep_source(
            GATE_SOURCE, gates, DRAIN_JUNCTION)
    _, wide = solver_for(
        device, ratio, drain,
        state_space=build_state_space([(-WIDE, WIDE)])).sweep_source(
            GATE_SOURCE, gates, DRAIN_JUNCTION)
    peak = np.abs(wide).max()
    assert np.abs(automatic - wide).max() <= 1e-10 * peak
    assert not events


def test_hot_windows_widen_and_solve_agrees():
    device = SETTransistor()
    solver = solver_for(device, 2.0, 0.1)
    solution = solver.solve()
    assert solution.state_count > 7
    boundary = solver.builder.window_table(
        [(min(solution.space.states)[0], max(solution.space.states)[0])]
    ).boundary
    assert solution.probabilities @ boundary \
        <= steadystate.BOUNDARY_MASS_TOLERANCE
    gate = float(solver.circuit.node("gate").voltage)
    _, swept = solver.sweep_source(GATE_SOURCE, [gate], DRAIN_JUNCTION)
    assert swept[0] == pytest.approx(solution.current(DRAIN_JUNCTION),
                                     rel=1e-12)


def test_cold_windows_keep_their_size():
    solver = solver_for(SETTransistor(), 0.05, 0.5)
    assert solver.solve().state_count == 7


def test_the_state_cap_reports_the_truncation(monkeypatch):
    monkeypatch.setattr(statespace, "MAX_STATES", 9)
    solver = solver_for(SETTransistor(), 2.0, 0.1)
    with capture_degradations() as events:
        solution = solver.solve()
    assert solution.state_count == 7
    assert [(event.site, event.action) for event in events] \
        == [("master.window_truncated", "keep:window")]
    assert "boundary mass" in events[0].detail


def test_explicit_windows_are_solved_as_given():
    solver = solver_for(SETTransistor(), 2.0, 0.1,
                        state_space=build_state_space([(-3, 3)]))
    with capture_degradations() as events:
        solution = solver.solve()
    assert solution.state_count == 7
    assert not events
