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
replicas).  Each is checked on the active compiled backend, on the
interpreted reference loop and on the numpy step path.

Digest: SHA-256 of ``currents.tobytes() + stderrs.tobytes()``.
"""

import hashlib

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import BACKEND_PYTHON

from ..conftest import build_double_dot_circuit

#: ``jit`` options: active compiled backend, interpreted loop, numpy path.
JIT_OPTIONS = [True, BACKEND_PYTHON, False]

DOUBLE_DOT_DIGESTS = {
    None: "a183b9bf961b2c3ed23e8724e0838de03f8abce94e5f104cada716045d16b1c0",
    8: "d35a7cb476de3b58571076c5b6826d78bf27ae1926094eef68d358124886a77d",
}
#: An R > 1 numpy ensemble interleaves replicas per macro-step, so it draws
#: the random stream in a different order from the replica-major loop.
DOUBLE_DOT_NUMPY_ENSEMBLE_DIGEST = \
    "ed34845302161316fa9456ffb6059773307f74010a1ee814ed218b7f24bfea09"

BLOCKADE_DIGESTS = {
    None: "3331b3424ab37456947d73c195fba5c8f5fa0c36e0f83c34d238de1b2ca76d1c",
    2: "20c77c2410d6c3405894cbf4230ef0dceda328e5d0ead2811a7e650dc65f038c",
}
BLOCKADE_NUMPY_ENSEMBLE_DIGEST = \
    "d9c98cd2385cc33f7fb1b404d30343a87c263092003f203791a294cfc6ea1157"


def digest(currents, stderrs):
    return hashlib.sha256(currents.tobytes() + stderrs.tobytes()).hexdigest()


def double_dot_sweep(jit, ensemble):
    """41-point gate-A sweep of the double dot at 250 mV and 20 K."""
    circuit = build_double_dot_circuit(bias_voltage=0.25)
    simulator = MonteCarloSimulator(circuit, temperature=20.0, seed=2031,
                                    jit=jit)
    _, currents, stderrs = simulator.sweep_source(
        "VGA", np.linspace(0.0, 0.4, 41), "J_left", max_events=2_000,
        warmup_events=200, ensemble=ensemble)
    return digest(currents, stderrs)


def blockade_sweep(jit, ensemble):
    """T = 0 transistor sweep; every gate step relaxes into blockade.

    With no warm-up each point relaxes in its first events, so the
    blockade starts inside the estimate window.
    """
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=0.002, gate_voltage=0.0)
    simulator = MonteCarloSimulator(circuit, temperature=0.0, seed=5,
                                    jit=jit)
    _, currents, stderrs = simulator.sweep_source(
        "VG", [0.0, 0.18, 0.0, 0.18, 0.18, 0.0], "J_drain", max_events=10,
        warmup_events=0, ensemble=ensemble)
    return digest(currents, stderrs)


def expected(pinned, numpy_ensemble, jit, ensemble):
    if jit is False and ensemble is not None:
        return numpy_ensemble
    return pinned[ensemble]


@pytest.mark.parametrize("ensemble", [None, 8])
@pytest.mark.parametrize("jit", JIT_OPTIONS)
def test_double_dot_sweep_digest(jit, ensemble):
    assert double_dot_sweep(jit, ensemble) == expected(
        DOUBLE_DOT_DIGESTS, DOUBLE_DOT_NUMPY_ENSEMBLE_DIGEST, jit, ensemble)


@pytest.mark.parametrize("ensemble", [None, 2])
@pytest.mark.parametrize("jit", JIT_OPTIONS)
def test_blockade_sweep_digest(jit, ensemble):
    assert blockade_sweep(jit, ensemble) == expected(
        BLOCKADE_DIGESTS, BLOCKADE_NUMPY_ENSEMBLE_DIGEST, jit, ensemble)


def test_cotunnelling_double_dot_matches_the_step_path():
    # Co-tunnel channels ride along in the stacked rate evaluation of a
    # point's roots and successors; the numpy step path builds every rate
    # row on its own, so equal sweeps mean equal rows, bit for bit.
    def sweep(jit):
        circuit = build_double_dot_circuit(bias_voltage=0.05)
        simulator = MonteCarloSimulator(circuit, temperature=4.0, seed=7,
                                        include_cotunneling=True, jit=jit)
        _, currents, stderrs = simulator.sweep_source(
            "VGA", np.linspace(0.0, 0.3, 13), "J_left", max_events=600,
            warmup_events=60)
        return digest(currents, stderrs)

    assert sweep(True) == sweep(False)
