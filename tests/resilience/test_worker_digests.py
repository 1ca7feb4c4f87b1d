"""Pinned digests of seeded ``workers=2`` sweeps.

A sweep fanned out over worker processes splits its points into chunks;
the Monte-Carlo tiers seed each chunk from one draw of the simulator's
generator.  The numbers must therefore be a function of the seed and the
worker count only, never of the pool that runs them or of the host.
"""

import hashlib

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.devices.set_transistor import (
    DRAIN_JUNCTION,
    DRAIN_SOURCE,
    GATE_SOURCE,
)
from repro.engines import SweepAxes, get_engine
from repro.master.steadystate import MasterEquationSolver

#: SHA-256 of the result arrays' bytes (currents, then stderrs if any).
PINNED_DIGESTS = {
    "master.sweep_source":
        "9bd5d6319266ec3ee8480e0eae5b1f59ff551016741a5433afc507df4a1ddb53",
    "master.sweep_gate_drain":
        "9e50058a2a88662b4e278412a5b48f9a1e4c2fdf0b05c04943c48701afab7ac0",
    "montecarlo":
        "796bd7c0134c5263d86bf0043279d649b1ff9dff88f7b274165a17d87e39a61e",
    # The R = 4 sweep of the replica-sequential ensemble (before the lock
    # step was retired, the ``ensemble-jit`` engine's).
    "ensemble":
        "ad20b4b6a318c109c21af20b11fc172fa3be47ad88d9ddbb90343fc5f0d2680a",
}

TEMPERATURE = 2.0


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(array).tobytes()
                                   for array in arrays)).hexdigest()


def master_solver(device):
    circuit = device.build_circuit(drain_voltage=5e-3)
    return MasterEquationSolver(circuit, temperature=TEMPERATURE)


def gates(device, count):
    return np.linspace(0.0, device.gate_period, count)


def seeded_sweep(device, engine, **options):
    """A seeded 7-point Monte-Carlo sweep over two workers."""
    session = get_engine(engine).bind(device, temperature=TEMPERATURE,
                                      seed=2024, max_events=300,
                                      warmup_events=50, **options)
    return session.sweep(SweepAxes(gates(device, 7), 5e-3), workers=2)


def test_master_sweep_source(device):
    _, currents = master_solver(device).sweep_source(
        GATE_SOURCE, gates(device, 9), DRAIN_JUNCTION, workers=2)
    assert digest(currents) == PINNED_DIGESTS["master.sweep_source"]


def test_master_sweep_gate_drain(device):
    _, _, currents = master_solver(device).sweep_gate_drain(
        GATE_SOURCE, DRAIN_SOURCE, gates(device, 5),
        np.linspace(-6e-3, 6e-3, 4), DRAIN_JUNCTION, workers=2)
    assert digest(currents) == PINNED_DIGESTS["master.sweep_gate_drain"]


@pytest.mark.parametrize("engine, options", [
    ("montecarlo", {}), ("ensemble", {"replicas": 4})])
def test_monte_carlo_sweep(device, engine, options):
    result = seeded_sweep(device, engine, **options)
    assert digest(result.currents, result.stderrs) == PINNED_DIGESTS[engine]
