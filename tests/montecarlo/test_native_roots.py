"""Root requests answered inside the advance loop, bit for bit.

During a sweep the loop roots a point itself from the native mirror of the
sweep plan: it re-keys the cursor to the replicas' planned roots and
registers their speculated one-event successors, restarting and counting
the resync interval and the memo cap as the kernel does.  Python answers
a point only where a root has no plan block, or whenever a fault injector
is active.  So every sweep here runs twice — plainly, and inside an
unarmed ``FaultInjector()``, where Python answers every point — and the
two must agree bit for bit, on the active backend and on the interpreted
loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import (
    REG_POINT,
    STATUS_NEED_EXP,
    STATUS_NEED_ROOTS,
    STATUS_NEED_UNIFORM,
    jit_compiled,
)
from repro.montecarlo.kernel import PLAN_BLOCK_POINTS, MonteCarloKernel
from repro.resilience import FaultInjector
from repro.resilience.events import capture_degradations

from ..conftest import build_double_dot_circuit, interpreted_backend

BUDGET = dict(max_events=120, warmup_events=12)

#: How the sweep under test runs: the active backend or the interpreted loop.
LOOPS = ["active", "interpreted"]


class Watched:
    """A simulator whose loop entries are recorded by status."""

    def __init__(self, loop, make):
        if loop == "interpreted":
            with interpreted_backend():
                self.simulator = make()
        else:
            self.simulator = make()
        kernel = self.simulator.kernel
        advance = kernel._jit_advance
        self.statuses = []

        def recorded(arguments):
            status = advance(arguments)
            self.statuses.append(status)
            return status

        kernel._jit_advance = recorded

    def sweep(self, source, values, junction, **options):
        _, currents, stderrs = self.simulator.sweep_source(
            source, values, junction, **options, **BUDGET)
        return currents.tobytes() + stderrs.tobytes()

    @property
    def root_requests(self):
        return self.statuses.count(STATUS_NEED_ROOTS)


def both_ways(loop, make, source, values, junction, **options):
    """The sweep with loop-answered roots and with Python's, and the first's
    root requests."""
    native = Watched(loop, make)
    answered = native.sweep(source, values, junction, **options)
    oracle = Watched(loop, make)
    with FaultInjector():
        expected = oracle.sweep(source, values, junction, **options)
    assert oracle.root_requests == len(values) - 1
    return answered, expected, native.root_requests


def assert_loop_answered(loop, make, source, values, junction, **options):
    answered, expected, requests = both_ways(loop, make, source, values,
                                             junction, **options)
    assert answered == expected
    # The loop answered most points itself.
    assert requests < (len(values) - 1) / 2
    return requests


@st.composite
def axes(draw, span):
    """Axes crossing two plan blocks, reversed or repeated."""
    kind = draw(st.sampled_from(["long", "reversed", "repeated"]))
    if kind == "long":
        return list(np.linspace(0.0, 2.0 * span,
                                draw(st.integers(PLAN_BLOCK_POINTS + 2,
                                                 2 * PLAN_BLOCK_POINTS + 6))))
    count = draw(st.integers(8, 40))
    values = list(np.linspace(0.0, span, count))
    if kind == "reversed":
        return values[::-1]
    return [values[draw(st.integers(0, count - 1))] for _ in range(count)]


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=10, deadline=None)
@given(junction=st.floats(5e-19, 2e-18), gate=st.floats(1e-18, 4e-18),
       resistance=st.floats(2e5, 5e6), theta=st.floats(0.02, 0.5),
       drain_fraction=st.floats(0.0, 0.6), data=st.data(),
       source=st.sampled_from(["gate", "drain"]),
       ensemble=st.sampled_from([None, 3]), warm_start=st.booleans())
def test_random_sets_match_python_roots(loop, junction, gate, resistance,
                                        theta, drain_fraction, data, source,
                                        ensemble, warm_start):
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

    answered, expected, _ = both_ways(loop, make, source, values, "J_drain",
                                      ensemble=ensemble,
                                      warm_start=warm_start)
    assert answered == expected


def reference_set(drain_voltage=0.01, temperature=1.0, **options):
    device = SETTransistor()

    def make():
        return MonteCarloSimulator(
            device.build_circuit(drain_voltage=drain_voltage),
            temperature=temperature, seed=29, **options)

    return device, make


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_roots_change_inside_a_block(monkeypatch, loop, ensemble):
    device, make = reference_set()
    values = np.linspace(0.0, 3.0 * device.gate_period,
                         2 * PLAN_BLOCK_POINTS + 2)
    starts = []
    plan_block = MonteCarloKernel._plan_block

    def recorded(kernel, plan, point, electrons, keys):
        starts.append(point)
        return plan_block(kernel, plan, point, electrons, keys)

    monkeypatch.setattr(MonteCarloKernel, "_plan_block", recorded)
    assert_loop_answered(loop, make, "gate", values, "J_drain",
                         ensemble=ensemble)
    # Blocks begin where a new root appears, not only at block boundaries,
    # and reach into the third block of points.
    assert any(start % PLAN_BLOCK_POINTS for start in starts)
    assert max(starts) >= PLAN_BLOCK_POINTS


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_cotunnelling_double_dot(loop, ensemble):
    values = np.linspace(0.0, 0.3, PLAN_BLOCK_POINTS + 6)

    def make():
        return MonteCarloSimulator(build_double_dot_circuit(bias_voltage=0.05),
                                   temperature=4.0, seed=11,
                                   include_cotunneling=True)

    assert_loop_answered(loop, make, "VGA", values, "J_left",
                         ensemble=ensemble)


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_every_discovery_resynced(loop, ensemble):
    # With resync_interval=1 only a root's first discovery adopts its
    # speculated row; every later one is solved exactly by Python, and the
    # count restarts at every root the loop takes from the plan.
    device, make = reference_set(resync_interval=1)
    values = np.linspace(0.0, 2.0 * device.gate_period, 40)
    assert_loop_answered(loop, make, "gate", values, "J_drain",
                         ensemble=ensemble)


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("ensemble", [None, 3])
def test_memo_cap_clears_mid_sweep(loop, ensemble):
    # A bias that visits several charge states per point, so a cap of two
    # memo entries clears the memo mid-point many times.
    device, build = reference_set(drain_voltage=0.05, temperature=2.0)
    cap_clears = []

    def make():
        simulator = build()
        kernel = simulator.kernel
        kernel._rate_cache_limit = 2
        store = kernel._store_entry
        clears = []
        cap_clears.append(clears)

        def counted(key, entry):
            if len(kernel._rate_cache) + kernel._unlisted \
                    >= kernel._rate_cache_limit:
                clears.append(1)
            store(key, entry)

        kernel._store_entry = counted
        return simulator

    values = np.linspace(0.0, 2.0 * device.gate_period, 40)
    answered, expected, requests = both_ways(loop, make, "gate", values,
                                             "J_drain", ensemble=ensemble)
    assert answered == expected
    # The cap cleared the memo mid-point as often with the loop's roots
    # as with Python's, and the loop still answered points.
    native, oracle = cap_clears
    assert len(native) == len(oracle) > len(values)
    assert requests < len(values) - 1


def strike_after_refills(kernel, refills):
    """Raise on the loop entry after ``refills`` refills.

    Returns the lists that receive the point of every refill, the point
    the fault struck at, and the point of every root request before it.
    """
    advance = kernel._jit_advance
    seen = []
    struck = []
    requests = []

    def flaky(arguments):
        if len(seen) >= refills:
            struck.append(int(kernel._ireg[REG_POINT]))
            raise RuntimeError("injected re-entry fault")
        status = advance(arguments)
        if status in (STATUS_NEED_EXP, STATUS_NEED_UNIFORM):
            seen.append(int(kernel._ireg[REG_POINT]))
        elif status == STATUS_NEED_ROOTS:
            requests.append(int(kernel._ireg[REG_POINT]))
        return status

    kernel._jit_advance = flaky
    return seen, struck, requests


@pytest.mark.skipif(not jit_compiled(), reason="no native jit backend loaded")
@pytest.mark.parametrize("ensemble", [None, 3])
def test_refill_fault_in_the_second_plan_block(ensemble):
    device, make = reference_set()
    values = np.linspace(0.0, 3.0 * device.gate_period,
                         2 * PLAN_BLOCK_POINTS + 2)
    options = dict(ensemble=ensemble, **BUDGET)
    # Which refill falls in the second plan block of the clean sweep.
    probe = make()
    points, _, _ = strike_after_refills(probe.kernel, 10 ** 9)
    probe.sweep_source("gate", values, "J_drain", **options)
    refills = 1 + next(index for index, point in enumerate(points)
                       if point >= PLAN_BLOCK_POINTS)

    def faulted(python_roots):
        simulator = make()
        _, struck, requests = strike_after_refills(simulator.kernel, refills)
        with capture_degradations() as events:
            if python_roots:
                with FaultInjector():
                    swept = simulator.sweep_source("gate", values,
                                                   "J_drain", **options)
            else:
                swept = simulator.sweep_source("gate", values, "J_drain",
                                               **options)
        assert [event.action for event in events] == ["fallback:python"]
        assert struck and struck[0] >= PLAN_BLOCK_POINTS
        # Before the fault Python rooted every point, or only a few.
        assert len(requests) == struck[0] if python_roots \
            else len(requests) < struck[0] / 2
        return swept[1].tobytes() + swept[2].tobytes()

    # The interpreted loop resumes the loop-rooted sweep from the fault's
    # phase boundary exactly as it resumes the Python-rooted one.
    assert faulted(False) == faulted(True)
