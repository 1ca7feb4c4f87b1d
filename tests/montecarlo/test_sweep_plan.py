"""The sweep plan: a root configuration's rate rows, once per block of points.

While a sweep runs, the kernel holds the source vectors of all its points
and evaluates a root configuration's rows (and its one-event successors')
for a block of points at once; a point adopts them only where the planned
potentials equal its exactly solved ones byte for byte.  Every rate is an
element-wise function of its own row, so a planned sweep must equal a
sweep with the plan withheld, bit for bit, whatever the axis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo import kernel as kernel_module
from repro.montecarlo.kernel import MonteCarloKernel
from repro.resilience import chunks

from ..conftest import build_double_dot_circuit, stepped_sweep

BUDGET = dict(max_events=300, warmup_events=30)


class _Tally:
    """Counts plan blocks and the roots that adopted planned rows."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.roots = 0
        self.adopted = 0
        plan_block = MonteCarloKernel._plan_block
        planned_rows = MonteCarloKernel._planned_rows

        def counted_block(kernel, *arguments):
            self.blocks += 1
            return plan_block(kernel, *arguments)

        def counted_rows(kernel, electrons, phi):
            rows = planned_rows(kernel, electrons, phi)
            self.roots += len(rows)
            self.adopted += sum(row is not None for row in rows)
            return rows

        monkeypatch.setattr(MonteCarloKernel, "_plan_block", counted_block)
        monkeypatch.setattr(MonteCarloKernel, "_planned_rows", counted_rows)


def _withheld(monkeypatch):
    """No kernel holds a sweep's source vectors: every point on its own."""
    monkeypatch.setattr(MonteCarloKernel, "plan_sweep",
                        lambda kernel, voltages: None)


def _set_sweep(device, temperature, drain, values, ensemble, warm_start,
               seed=17, source="gate"):
    simulator = MonteCarloSimulator(
        device.build_circuit(drain_voltage=drain), temperature=temperature,
        seed=seed)
    junction = simulator.circuit.junctions()[0].name
    _, currents, stderrs = simulator.sweep_source(
        source, values, junction, warm_start=warm_start, ensemble=ensemble,
        **BUDGET)
    return currents, stderrs


def _same(first, second):
    return all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


@st.composite
def _axes(draw, span):
    """Axes over ``span`` a plan must survive: reversed, repeated, one point."""
    kind = draw(st.sampled_from(["forward", "reversed", "repeated", "one"]))
    count = draw(st.integers(2, 12))
    values = list(np.linspace(0.0, span, count))
    if kind == "reversed":
        values.reverse()
    elif kind == "repeated":
        values = [values[draw(st.integers(0, count - 1))]
                  for _ in range(count)]
    elif kind == "one":
        values = values[:1]
    return values


@settings(max_examples=20, deadline=None)
@given(junction=st.floats(5e-19, 2e-18), gate=st.floats(1e-18, 4e-18),
       resistance=st.floats(2e5, 5e6), theta=st.floats(0.02, 0.5),
       drain_fraction=st.floats(0.0, 0.6), data=st.data(),
       source=st.sampled_from(["gate", "drain"]),
       ensemble=st.sampled_from([None, 3]), warm_start=st.booleans())
def test_planned_sweep_equals_the_withheld_sweep(junction, gate, resistance,
                                                 theta, drain_fraction, data,
                                                 source, ensemble,
                                                 warm_start):
    # A gate sweep moves the island potentials only; a drain sweep also
    # moves a junction terminal, so the per-row voltages enter the rates.
    device = SETTransistor(junction_capacitance=junction,
                           gate_capacitance=gate,
                           junction_resistance=resistance)
    c_sigma = 2 * junction + gate
    charging = E_CHARGE ** 2 / (2 * c_sigma)
    temperature = theta * charging / BOLTZMANN
    drain = drain_fraction * E_CHARGE / c_sigma
    span = 1.5 * device.gate_period if source == "gate" \
        else 1.5 * E_CHARGE / c_sigma
    values = data.draw(_axes(span))
    arguments = (device, temperature, drain, values, ensemble, warm_start)
    with pytest.MonkeyPatch.context() as patch:
        tally = _Tally(patch)
        planned = _set_sweep(*arguments, source=source)
    with pytest.MonkeyPatch.context() as patch:
        _withheld(patch)
        withheld = _set_sweep(*arguments, source=source)
    assert _same(planned, withheld)
    assert tally.blocks >= 1
    assert tally.adopted == tally.roots


def test_a_one_ulp_mismatch_falls_back_and_still_matches(monkeypatch):
    device = SETTransistor()
    values = np.linspace(0.0, 2.0 * device.gate_period, 40)
    arguments = (device, 1.0, 0.01, values, 4, True)
    with pytest.MonkeyPatch.context() as patch:
        _withheld(patch)
        expected = _set_sweep(*arguments)

    plan_block = MonteCarloKernel._plan_block
    evaluated_here = []
    stack_rows = MonteCarloKernel._stack_rows

    def nudged_block(kernel, plan, point, electrons, keys):
        plan_block(kernel, plan, point, electrons, keys)
        for key in keys:
            stack = plan.blocks[key][2]
            stack[:] = np.nextafter(stack, np.inf)

    def counted_rows(kernel, phi, configurations, voltages=None):
        if voltages is None:
            evaluated_here.append(len(phi))
        return stack_rows(kernel, phi, configurations, voltages)

    monkeypatch.setattr(MonteCarloKernel, "_plan_block", nudged_block)
    monkeypatch.setattr(MonteCarloKernel, "_stack_rows", counted_rows)
    tally = _Tally(monkeypatch)
    assert _same(_set_sweep(*arguments), expected)
    # Every root missed its plan and was evaluated at its point.
    assert tally.adopted == 0
    assert sum(evaluated_here) == tally.roots >= len(values)


def test_cotunnelling_double_dot_plan_equals_the_step_path(monkeypatch):
    # Longer than one plan block, so blocks are re-planned mid-sweep.
    values = np.linspace(0.0, 0.3, kernel_module.PLAN_BLOCK_POINTS + 6)

    def build():
        return MonteCarloSimulator(build_double_dot_circuit(bias_voltage=0.05),
                                   temperature=4.0, seed=11,
                                   include_cotunneling=True)

    tally = _Tally(monkeypatch)
    _, currents, stderrs = build().sweep_source("VGA", values, "J_left",
                                                **BUDGET)
    # Python answers a root only to open its block; the loop roots the
    # other points from the plan.
    assert tally.adopted == tally.roots == tally.blocks >= 2
    stepped = stepped_sweep(build(), "VGA", values, "J_left", **BUDGET)
    assert _same((currents, stderrs), stepped)


def test_worker_chunks_are_planned(monkeypatch):
    device = SETTransistor()
    values = np.linspace(0.0, 2.0 * device.gate_period, 24)

    def pooled():
        simulator = MonteCarloSimulator(
            device.build_circuit(drain_voltage=0.01), temperature=1.0,
            seed=23)
        junction = simulator.circuit.junctions()[0].name
        return simulator.sweep_source("gate", values, junction, workers=2,
                                      **BUDGET)

    expected = pooled()
    # The same chunks in this process, so the plan can be watched.
    monkeypatch.setattr(chunks, "fan_out",
                        lambda compute, parts: [compute(part)
                                                for part in parts])
    tally = _Tally(monkeypatch)
    assert _same(pooled(), expected)
    assert tally.adopted == tally.roots == tally.blocks >= 2


def test_reference_sweep_makes_few_rate_calls(monkeypatch):
    device = SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                           junction_resistance=1e6)
    values = np.linspace(0.0, 2.0 * device.gate_period, 129)
    simulator = MonteCarloSimulator(device.build_circuit(drain_voltage=0.05),
                                    temperature=1.0, seed=3)
    junction = simulator.circuit.junctions()[0].name
    calls = []
    rate_kernel = kernel_module.orthodox_rate_vec

    def counted(*arguments, **options):
        calls.append(1)
        return rate_kernel(*arguments, **options)

    monkeypatch.setattr(kernel_module, "orthodox_rate_vec", counted)
    simulator.sweep_source("gate", values, junction, max_events=2_000,
                           warmup_events=200)
    assert len(calls) / len(values) <= 0.2


def _walked_plan(voltages):
    """Distinct rows and plan indices by a walk over the rows' bytes."""
    points, first, indices = {}, [], []
    for point, vector in enumerate(np.asarray(voltages, dtype=float)):
        key = vector.tobytes()
        if key not in points:
            points[key] = len(first)
            first.append(point)
        indices.append(points[key])
    return points, first, indices


@pytest.mark.parametrize("voltages", [
    np.column_stack([np.full(9, 5e-3), np.linspace(0.0, 0.1, 9)]),
    np.column_stack([np.full(9, 5e-3), np.linspace(0.1, 0.0, 9)]),
    np.array([[0.0, 0.2], [0.0, 0.1], [0.0, 0.2], [0.0, 0.1], [0.0, 0.3]]),
    np.array([[0.0, 0.1], [-0.0, 0.1], [0.0, -0.0], [-0.0, 0.1],
              [0.0, 0.0], [0.0, -0.0]]),
    np.tile([[1e-3, 0.05, 0.0]], (4, 1)),
    np.empty((0, 0)),
], ids=["ascending", "reversed", "repeated", "signed-zeros", "constant",
        "empty"])
def test_plan_indices_equal_the_walk_over_row_bytes(voltages):
    plan = kernel_module._SweepPlan(voltages, 0, 4, 1)
    points, first, indices = _walked_plan(voltages)
    assert plan.points == points
    assert plan.indices.dtype == np.int64
    assert plan.indices.tolist() == indices
    assert plan.voltages.tobytes() == voltages[first].tobytes()
    assert plan.plan_indices(voltages) is plan.indices
    assert plan.plan_indices(np.array(voltages)).tolist() == indices
