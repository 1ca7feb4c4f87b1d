"""Pinned digests of multi-island and blockade Monte-Carlo sweeps.

The island potentials of a configuration the kernel discovers lazily are
derived incrementally from the configuration it was reached from, so on a
multi-island circuit the last bits of every rate — and therefore the seeded
currents — depend on the order in which configurations are discovered and
linked (a single island's potential is exact either way).  These digests
pin that order on the double dot of ``tests/conftest.py`` for the scalar
block-averaged estimator and for an eight-replica ensemble (several root
configurations per point), plus a T = 0 transistor sweep whose blockade
begins inside the estimate window (empty trailing blocks, zero-duration
replicas).  Each is checked on the active backend of the advance loop and on
the interpreted loop; the single-trajectory sweeps also on the per-event
step loop, which the advance loop replays event for event.

Digest: SHA-256 of ``currents.tobytes() + stderrs.tobytes()``.
"""

import hashlib

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator

from ..conftest import (
    build_double_dot_circuit,
    interpreted_backend,
    stepped_sweep,
)

#: How a sweep runs: the active backend, the interpreted advance loop, or
#: the step loop (single trajectories only).
LOOPS = ["active", "interpreted", "step"]

DOUBLE_DOT_DIGESTS = {
    None: "a183b9bf961b2c3ed23e8724e0838de03f8abce94e5f104cada716045d16b1c0",
    8: "d35a7cb476de3b58571076c5b6826d78bf27ae1926094eef68d358124886a77d",
}

BLOCKADE_DIGESTS = {
    None: "3331b3424ab37456947d73c195fba5c8f5fa0c36e0f83c34d238de1b2ca76d1c",
    2: "20c77c2410d6c3405894cbf4230ef0dceda328e5d0ead2811a7e650dc65f038c",
}


def digest(currents, stderrs):
    return hashlib.sha256(currents.tobytes() + stderrs.tobytes()).hexdigest()


def sweep(loop, build_simulator, source, values, junction, ensemble,
          **budget):
    """``(currents, stderrs)`` of a seeded sweep on ``loop``."""
    if loop == "interpreted":
        with interpreted_backend():
            simulator = build_simulator()
    else:
        simulator = build_simulator()
    if loop == "step":
        assert ensemble is None
        return stepped_sweep(simulator, source, values, junction, **budget)
    _, currents, stderrs = simulator.sweep_source(
        source, values, junction, ensemble=ensemble, **budget)
    return currents, stderrs


def double_dot_sweep(loop, ensemble):
    """41-point gate-A sweep of the double dot at 250 mV and 20 K."""
    def build():
        return MonteCarloSimulator(build_double_dot_circuit(bias_voltage=0.25),
                                   temperature=20.0, seed=2031)

    return digest(*sweep(loop, build, "VGA", np.linspace(0.0, 0.4, 41),
                         "J_left", ensemble, max_events=2_000,
                         warmup_events=200))


def blockade_sweep(loop, ensemble):
    """T = 0 transistor sweep; every gate step relaxes into blockade.

    With no warm-up each point relaxes in its first events, so the
    blockade starts inside the estimate window.
    """
    def build():
        transistor = SETTransistor(junction_capacitance=1e-18,
                                   gate_capacitance=2e-18,
                                   junction_resistance=1e6)
        circuit = transistor.build_circuit(drain_voltage=0.002,
                                           gate_voltage=0.0)
        return MonteCarloSimulator(circuit, temperature=0.0, seed=5)

    return digest(*sweep(loop, build, "VG", [0.0, 0.18, 0.0, 0.18, 0.18, 0.0],
                         "J_drain", ensemble, max_events=10,
                         warmup_events=0))


def cases(replicas):
    """(loop, ensemble) pairs: every loop for one trajectory, the advance
    loops for an ensemble of ``replicas``."""
    return [(loop, None) for loop in LOOPS] + \
        [(loop, replicas) for loop in LOOPS if loop != "step"]


@pytest.mark.parametrize("loop, ensemble", cases(8))
def test_double_dot_sweep_digest(loop, ensemble):
    assert double_dot_sweep(loop, ensemble) == DOUBLE_DOT_DIGESTS[ensemble]


@pytest.mark.parametrize("loop, ensemble", cases(2))
def test_blockade_sweep_digest(loop, ensemble):
    assert blockade_sweep(loop, ensemble) == BLOCKADE_DIGESTS[ensemble]


def test_cotunnelling_double_dot_matches_the_step_path():
    # Co-tunnel channels ride along in the stacked rate evaluation of a
    # point's roots and successors; the step loop builds every rate row on
    # its own, so equal sweeps mean equal rows, bit for bit.
    def build():
        return MonteCarloSimulator(build_double_dot_circuit(bias_voltage=0.05),
                                   temperature=4.0, seed=7,
                                   include_cotunneling=True)

    def cotunnelling_sweep(loop):
        return digest(*sweep(loop, build, "VGA", np.linspace(0.0, 0.3, 13),
                             "J_left", None, max_events=600,
                             warmup_events=60))

    assert cotunnelling_sweep("active") == cotunnelling_sweep("step")
