"""A serial sweep is one run of the advance loop, bit for bit the step path.

The loop walks a sweep's points itself: it carries the replicas from point
to point, zeroes their clocks and counters, writes each point's phase rows
into the sweep's record and returns to Python once per point for the
point's rate tables.  Nothing of that may move a number: a one-trajectory
sweep must equal ``stepped_sweep`` (every phase a run of the per-event
step-loop oracle), and an ensemble sweep must equal the per-point
driver it replaced (one one-point run per point at the circuit's bias),
whatever the axis — long enough to cross plan blocks with the root
configuration changing inside one, reversed, repeated, cold-started, or on
the drain — on the native loop and on the interpreted one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo import simulator as simulator_module
from repro.montecarlo.kernel import PLAN_BLOCK_POINTS, MonteCarloKernel
from repro.montecarlo.simulator import SWEEP_BLOCKS, _PointRecords
from repro.resilience import chunks

from ..conftest import (
    build_double_dot_circuit,
    interpreted_backend,
    stepped_sweep,
)
from .reference_kernel import StepLoop

BUDGET = dict(max_events=120, warmup_events=12)

#: How the sweep under test runs: the active backend or the interpreted loop.
LOOPS = ["active", "interpreted"]


def build(loop, make):
    """``make()`` with its kernel on ``loop``."""
    if loop == "interpreted":
        with interpreted_backend():
            return make()
    return make()


def per_point_sweep(simulator, source, values, junction, *, ensemble,
                    warm_start, max_events, warmup_events):
    """The sweep one point at a time: the driver the one-run loop replaced.

    Each point sets its bias on the circuit, zeroes the clocks and runs the
    estimator's schedule as its own one-point run — on the step-loop oracle
    for a trajectory, on the advance loop for an ensemble; a cold sweep
    starts every point from a fresh state.
    """
    loop = StepLoop(simulator.kernel)
    junctions = [element.name for element in simulator.circuit.junctions()]
    records = _PointRecords(len(values), max_events, warmup_events,
                            SWEEP_BLOCKS, ensemble, junctions.index(junction))
    state = None
    for point, value in enumerate(values):
        simulator.circuit.set_source_voltage(source, float(value))
        if state is None or not warm_start:
            state = simulator.new_state() if ensemble is None \
                else simulator.new_ensemble(ensemble)
        if ensemble is None:
            state.time = 0.0
            records.store(point, loop.phases(state, records.schedule))
        else:
            state.times[:] = 0.0
            records.store(point, simulator._run_phases(state,
                                                       records.schedule))
    estimates = records.estimates()
    return estimates.means, estimates.stderrs


def reference(make, source, values, junction, ensemble, warm_start):
    """The step-path (or per-point) sweep on a fresh simulator."""
    if ensemble is None and warm_start:
        return stepped_sweep(make(), source, values, junction, **BUDGET)
    return per_point_sweep(make(), source, values, junction,
                           ensemble=ensemble, warm_start=warm_start, **BUDGET)


def one_run(loop, make, source, values, junction, ensemble, warm_start,
            **options):
    simulator = build(loop, make)
    _, currents, stderrs = simulator.sweep_source(
        source, values, junction, ensemble=ensemble, warm_start=warm_start,
        **options, **BUDGET)
    return currents, stderrs


def assert_same(first, second):
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


@st.composite
def axes(draw, span):
    """Axes the loop must walk: long, reversed or repeated."""
    kind = draw(st.sampled_from(["long", "reversed", "repeated"]))
    if kind == "long":
        # Longer than two plan blocks, over several charge states, so the
        # root configuration changes inside a block.
        return list(np.linspace(0.0, 2.0 * span,
                                draw(st.integers(2 * PLAN_BLOCK_POINTS + 2,
                                                 2 * PLAN_BLOCK_POINTS + 12))))
    count = draw(st.integers(2, 24))
    values = list(np.linspace(0.0, span, count))
    if kind == "reversed":
        return values[::-1]
    return [values[draw(st.integers(0, count - 1))] for _ in range(count)]


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=12, deadline=None)
@given(junction=st.floats(5e-19, 2e-18), gate=st.floats(1e-18, 4e-18),
       resistance=st.floats(2e5, 5e6), theta=st.floats(0.02, 0.5),
       drain_fraction=st.floats(0.0, 0.6), data=st.data(),
       source=st.sampled_from(["gate", "drain"]),
       ensemble=st.sampled_from([None, 3]), warm_start=st.booleans())
def test_one_run_sweep_equals_the_step_path(loop, junction, gate, resistance,
                                            theta, drain_fraction, data,
                                            source, ensemble, warm_start):
    device = SETTransistor(junction_capacitance=junction,
                           gate_capacitance=gate,
                           junction_resistance=resistance)
    c_sigma = 2 * junction + gate
    temperature = theta * E_CHARGE ** 2 / (2 * c_sigma) / BOLTZMANN
    span = 1.5 * device.gate_period if source == "gate" \
        else 1.5 * E_CHARGE / c_sigma
    values = data.draw(axes(span))

    def make():
        return MonteCarloSimulator(device.build_circuit(
            drain_voltage=drain_fraction * E_CHARGE / c_sigma),
            temperature=temperature, seed=17)

    arguments = (source, values, "J_drain", ensemble, warm_start)
    assert_same(one_run(loop, make, *arguments), reference(make, *arguments))


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_roots_change_inside_a_plan_block(monkeypatch, loop, ensemble):
    device = SETTransistor()
    values = np.linspace(0.0, 3.0 * device.gate_period,
                         2 * PLAN_BLOCK_POINTS + 2)

    def make():
        return MonteCarloSimulator(device.build_circuit(drain_voltage=0.01),
                                   temperature=1.0, seed=29)

    starts = []
    plan_block = MonteCarloKernel._plan_block

    def recorded(kernel, plan, point, electrons, keys):
        starts.append(point)
        return plan_block(kernel, plan, point, electrons, keys)

    monkeypatch.setattr(MonteCarloKernel, "_plan_block", recorded)
    arguments = ("gate", values, "J_drain", ensemble, True)
    swept = one_run(loop, make, *arguments)
    # Blocks begin where a new root appears, not only at block boundaries,
    # and reach into the third block of points.
    assert any(start % PLAN_BLOCK_POINTS for start in starts)
    assert max(starts) >= PLAN_BLOCK_POINTS
    monkeypatch.undo()
    assert_same(swept, reference(make, *arguments))


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_cold_started_reversed_drain_axis(loop, ensemble):
    device = SETTransistor()
    c_sigma = 2 * device.junction_capacitance + device.gate_capacitance
    values = np.linspace(0.0, 1.5 * E_CHARGE / c_sigma, 40)[::-1]

    def make():
        return MonteCarloSimulator(device.build_circuit(gate_voltage=0.02),
                                   temperature=2.0, seed=31)

    arguments = ("drain", values, "J_drain", ensemble, False)
    assert_same(one_run(loop, make, *arguments), reference(make, *arguments))


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_cotunnelling_double_dot(loop, ensemble):
    values = np.linspace(0.0, 0.3, PLAN_BLOCK_POINTS + 6)

    def make():
        return MonteCarloSimulator(build_double_dot_circuit(bias_voltage=0.05),
                                   temperature=4.0, seed=11,
                                   include_cotunneling=True)

    arguments = ("VGA", values, "J_left", ensemble, True)
    assert_same(one_run(loop, make, *arguments), reference(make, *arguments))


@pytest.mark.parametrize("loop", LOOPS)
def test_worker_chunks(monkeypatch, loop):
    device = SETTransistor()
    values = np.linspace(0.0, 2.0 * device.gate_period, 30)

    def make(seed=23):
        return MonteCarloSimulator(device.build_circuit(drain_voltage=0.01),
                                   temperature=1.0, seed=seed)

    # The chunks run in this process, each on its own seed; each chunk's
    # sweep must equal the step path at that seed.
    parts = []
    sweep_chunk = simulator_module._sweep_chunk

    def recorded(simulator_args, seeds, sweep_options, chunk):
        parts.append((seeds[chunk.index], list(chunk.points)))
        return sweep_chunk(simulator_args, seeds, sweep_options, chunk)

    monkeypatch.setattr(simulator_module, "_sweep_chunk", recorded)
    monkeypatch.setattr(chunks, "fan_out",
                        lambda compute, pieces: [compute(piece)
                                                 for piece in pieces])
    swept = one_run(loop, make, "gate", values, "J_drain", None, True,
                    workers=2)
    assert len(parts) == 2
    stepped = [stepped_sweep(build(loop, lambda: make(seed)), "gate", points,
                             "J_drain", **BUDGET) for seed, points in parts]
    assert_same(swept, [np.concatenate(arrays) for arrays in zip(*stepped)])
