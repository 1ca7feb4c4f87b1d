"""Shared fixtures for the test-suite.

The standard device used across many tests is a symmetric SET with 1 aF
junctions, a 2 aF gate and 1 Mohm junctions: charging energy ~0.23 meV
(usable below ~2.3 K with the 40 kT margin), gate period 80 mV, blockade
voltage 40 mV.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.constants import E_CHARGE
from repro.devices import SETTransistor

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # hypothesis is optional outside the property tests
    pass
else:
    # The "ci" profile makes property tests deterministic on shared
    # runners: no wall-clock deadline (cold CI machines time out healthy
    # tests) and a fixed derandomized seed so a red run reproduces
    # locally.  Select it with HYPOTHESIS_PROFILE=ci.
    _hypothesis_settings.register_profile("ci", deadline=None,
                                          derandomize=True, print_blob=True)
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default"))


STANDARD_CJ = 1e-18
STANDARD_CG = 2e-18
STANDARD_RJ = 1e6


def build_set_circuit(drain_voltage: float = 0.0, gate_voltage: float = 0.0,
                      offset_charge: float = 0.0,
                      junction_capacitance: float = STANDARD_CJ,
                      gate_capacitance: float = STANDARD_CG,
                      junction_resistance: float = STANDARD_RJ) -> Circuit:
    """A plain two-junction SET circuit with standard node/element names."""
    circuit = Circuit("set")
    circuit.add_island("dot", offset_charge=offset_charge)
    circuit.add_voltage_source("VD", "drain", drain_voltage)
    circuit.add_voltage_source("VG", "gate", gate_voltage)
    circuit.add_junction("J_drain", "drain", "dot", junction_capacitance,
                         junction_resistance)
    circuit.add_junction("J_source", "dot", "gnd", junction_capacitance,
                         junction_resistance)
    circuit.add_capacitor("C_gate", "gate", "dot", gate_capacitance)
    return circuit


def session_simulator(device: SETTransistor, drain_voltage: float, *,
                      temperature: float, seed: int):
    """A bare simulator on the circuit a bound Monte-Carlo session sweeps.

    ``simulator.sweep_source("VG", gates, "J_drain", max_events=...,
    warmup_events=..., warm_start=True)`` on it replays
    ``get_engine("montecarlo").bind(device, temperature=..., seed=...,
    ...).sweep(SweepAxes(gates, drain_voltage))``.
    """
    from repro.montecarlo import MonteCarloSimulator

    return MonteCarloSimulator(
        device.build_circuit(drain_voltage=drain_voltage),
        temperature=temperature, seed=seed)


def build_double_dot_circuit(bias_voltage: float = 1e-3) -> Circuit:
    """Two islands in series between a biased lead and ground, with gates."""
    circuit = Circuit("double_dot")
    circuit.add_island("dot_a", offset_charge=0.05 * E_CHARGE)
    circuit.add_island("dot_b", offset_charge=-0.1 * E_CHARGE)
    circuit.add_voltage_source("VL", "lead", bias_voltage)
    circuit.add_voltage_source("VGA", "gate_a", 0.0)
    circuit.add_voltage_source("VGB", "gate_b", 0.0)
    circuit.add_junction("J_left", "lead", "dot_a", 1e-18, 1e6)
    circuit.add_junction("J_mid", "dot_a", "dot_b", 0.5e-18, 2e6)
    circuit.add_junction("J_right", "dot_b", "gnd", 1.2e-18, 1.5e6)
    circuit.add_capacitor("C_gate_a", "gate_a", "dot_a", 0.4e-18)
    circuit.add_capacitor("C_gate_b", "gate_b", "dot_b", 0.3e-18)
    return circuit


@contextlib.contextmanager
def interpreted_backend():
    """Kernels built inside the block run the interpreted advance loop.

    Sets ``REPRO_JIT_BACKEND=python`` and clears the backend resolution
    cache, restoring both on exit; a kernel keeps the backend it resolved
    at construction, so simulators built before or after the block keep
    the active one.
    """
    from repro.montecarlo.jit import BACKEND_PYTHON, clear_backend_cache

    previous = os.environ.get("REPRO_JIT_BACKEND")
    os.environ["REPRO_JIT_BACKEND"] = BACKEND_PYTHON
    clear_backend_cache()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_JIT_BACKEND"]
        else:
            os.environ["REPRO_JIT_BACKEND"] = previous
        clear_backend_cache()


@pytest.fixture
def python_backend():
    """Run the test's Monte-Carlo kernels on the interpreted advance loop."""
    with interpreted_backend():
        yield


def stepped_sweep(simulator, source: str, values, junction_name: str, *,
                  max_events: int, warmup_events: int):
    """A warm-started single-trajectory sweep on the per-event step loop.

    Mirrors ``simulator.sweep_source(source, values, junction_name,
    max_events=..., warmup_events=..., warm_start=True)``, but runs every
    phase of every point (warm-up, then the estimator's blocks) as a run of
    the step-loop oracle ``tests.montecarlo.reference_kernel.StepLoop`` over
    the simulator's kernel.  The advance loop replays that loop event for
    event, so at equal seeds the returned ``(currents, stderrs)`` equal the
    plain sweep's bit for bit.
    """
    from repro.montecarlo.kernel import PhaseRecord
    from repro.montecarlo.simulator import SWEEP_BLOCKS, _PointRecords

    from .montecarlo.reference_kernel import StepLoop

    loop = StepLoop(simulator.kernel)
    junctions = [junction.name for junction in simulator.circuit.junctions()]
    records = _PointRecords(len(values), max_events, warmup_events,
                            SWEEP_BLOCKS, None,
                            junctions.index(junction_name))
    state = None
    for point, value in enumerate(values):
        simulator.circuit.set_source_voltage(source, float(value))
        if state is None:
            state = simulator.new_state()
        state.time = 0.0
        start_events = state.event_count
        start = [state.electron_transfers[name] for name in junctions]
        record = PhaseRecord(records.schedule, 1, len(junctions))
        for phase, budget in enumerate(records.schedule):
            loop.run(max_events=budget, state=state)
            record.store(phase + 1, state.time,
                         state.event_count - start_events,
                         [state.electron_transfers[name] - before
                          for name, before in zip(junctions, start)])
        records.store(point, record)
    estimates = records.estimates()
    return estimates.means, estimates.stderrs


@pytest.fixture
def set_circuit() -> Circuit:
    """A conducting SET operating point (above the blockade threshold)."""
    return build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)


@pytest.fixture
def blockaded_set_circuit() -> Circuit:
    """A SET deep inside its Coulomb blockade."""
    return build_set_circuit(drain_voltage=0.005, gate_voltage=0.0)


@pytest.fixture
def double_dot_circuit() -> Circuit:
    """A two-island series circuit for interacting-SET tests."""
    return build_double_dot_circuit()


@pytest.fixture
def standard_transistor() -> SETTransistor:
    """The standard SET device used throughout the tests."""
    return SETTransistor(junction_capacitance=STANDARD_CJ,
                         gate_capacitance=STANDARD_CG,
                         junction_resistance=STANDARD_RJ)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded NumPy generator for reproducible stochastic tests."""
    return np.random.default_rng(12345)
