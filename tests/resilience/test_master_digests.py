"""Pinned digests of seeded master-equation point solves and sweeps.

``test_worker_digests.py`` pins the ``workers=2`` sweeps; this file pins the
engine ``stream`` (the session's birth-death chain) and the in-process
solver paths that share the per-point routine with the worker sweeps:
:meth:`MasterEquationSolver.solve` (currents and probabilities),
low-temperature sweeps whose chains are reducible (uphill rates underflow
to zero, so the stationary state depends on the start state) and a dense
double-dot window.  Every master output is deterministic, so these digests
must hold bit for bit across any refactor of the solver.
"""

import hashlib

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.devices.set_transistor import DRAIN_JUNCTION, GATE_SOURCE
from repro.engines import SweepAxes, get_engine
from repro.master.statespace import build_state_space
from repro.master.steadystate import MasterEquationSolver

from ..conftest import build_double_dot_circuit

#: SHA-256 of the result arrays' bytes.
PINNED_DIGESTS = {
    "stream":
        "4dfa391d0d31d5ae5a55bcb14791a0ef41449ed2d58a84f856fe4be668660750",
    "solve":
        "c7df60a3274c68b270f6833b71d1ba119d37d632792cf0db2a90fb89043d00d5",
    "reducible.sweep_source":
        "3712b7e854ee1bdcb3d37b33c1b8e5563a5e4a5321092fb62a6239b5366bdfd2",
    "reducible.solve":
        "23e185f3c8208f63d4ce3923c7a731005685d170557fa0cddfb98e054faa7f5b",
    "reducible.double_dot":
        "4eb4df54add58e83dd4c92b025ffbf31f96d36426c689c92a9e48d2f4b9a95b5",
    "double_dot.sweep_source":
        "f6cd000fa80343bec56815a301674495541c99d21147963ea67f1f72d8034410",
    "double_dot.sweep_gate_drain":
        "751bc618e2115546a191f88e5efbd3bf122824f49e0ef10756cec45400b30206",
    "double_dot.solve":
        "a2c6acc707b85f2f3d37ebffe4698d4896eb56a2d81aa69ad9895de8945f40e4",
}

TEMPERATURE = 2.0
#: Deep enough that every uphill rate underflows: reducible chains.
COLD_TEMPERATURE = 0.02


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(array).tobytes()
                                   for array in arrays)).hexdigest()


def gates(device, count, periods=2.0):
    return np.linspace(0.0, periods * device.gate_period, count)


def point_solves(solver, source, values):
    """Every junction current and the probabilities of per-point solves."""
    parts = []
    for value in values:
        solver.circuit.set_source_voltage(source, float(value))
        solution = solver.solve()
        parts.append(np.array(sorted(solution.junction_currents.items()),
                              dtype=object)[:, 1].astype(float))
        parts.append(solution.probabilities)
        parts.append(np.array([transition.rate for transition
                               in solution.transitions]))
    return np.concatenate(parts)


def test_master_stream(device):
    session = get_engine("master").bind(device, temperature=TEMPERATURE)
    currents = np.array([observed.current for _, observed in session.stream(
        SweepAxes(gates(device, 33), 5e-3))])
    assert digest(currents) == PINNED_DIGESTS["stream"]


def test_master_solve(device):
    solver = MasterEquationSolver(device.build_circuit(drain_voltage=5e-3),
                                  temperature=TEMPERATURE)
    assert digest(point_solves(solver, GATE_SOURCE, gates(device, 17))) \
        == PINNED_DIGESTS["solve"]


def cold_solver(device, drain):
    """A cold SET on a window that the ground state leaves as the gate rises.

    Once the ground state lies outside the window the solve starts from the
    window's first state; at this temperature every uphill rate underflows,
    so the chain is reducible: transient states drain into the window edge.
    """
    return MasterEquationSolver(device.build_circuit(drain_voltage=drain),
                                temperature=COLD_TEMPERATURE,
                                state_space=build_state_space([(-2, 2)]))


def test_reducible_sweep_source(device):
    currents = [cold_solver(device, drain).sweep_source(
                    GATE_SOURCE, gates(device, 41, periods=5.0), DRAIN_JUNCTION)[1]
                for drain in (2e-3, 3e-2)]
    assert digest(*currents) == PINNED_DIGESTS["reducible.sweep_source"]


def test_reducible_solve(device):
    parts = [point_solves(cold_solver(device, drain), GATE_SOURCE,
                          gates(device, 13, periods=5.0))
             for drain in (2e-3, 3e-2)]
    assert digest(*parts) == PINNED_DIGESTS["reducible.solve"]


def test_reducible_double_dot_sweep_gate_drain():
    solver = MasterEquationSolver(
        build_double_dot_circuit(bias_voltage=0.1),
        temperature=COLD_TEMPERATURE,
        state_space=build_state_space([(0, 2), (-2, 0)]))
    _, _, currents = solver.sweep_gate_drain(
        "VGA", "VGB", np.linspace(-0.6, 0.6, 9), np.linspace(-0.6, 0.6, 9),
        "J_left")
    assert digest(currents) == PINNED_DIGESTS["reducible.double_dot"]


def double_dot_solver(temperature=1.0):
    circuit = build_double_dot_circuit(bias_voltage=0.1)
    return MasterEquationSolver(circuit, temperature=temperature,
                                extra_electrons=2, method="dense")


def test_double_dot_sweep_source():
    _, currents = double_dot_solver().sweep_source(
        "VGA", np.linspace(-0.2, 0.2, 21), "J_left")
    assert digest(currents) == PINNED_DIGESTS["double_dot.sweep_source"]


def test_double_dot_sweep_gate_drain():
    _, _, currents = double_dot_solver(0.05).sweep_gate_drain(
        "VGA", "VL", np.linspace(-0.2, 0.2, 7), np.linspace(-0.1, 0.1, 5),
        "J_right")
    assert digest(currents) == PINNED_DIGESTS["double_dot.sweep_gate_drain"]


def test_double_dot_solve():
    parts = [point_solves(double_dot_solver(temperature), "VGB",
                          np.linspace(-0.15, 0.15, 7))
             for temperature in (1.0, 0.05)]
    assert digest(*parts) == PINNED_DIGESTS["double_dot.solve"]
