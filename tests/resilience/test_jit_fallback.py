"""Tests for the native-to-interpreted fallback of the Monte-Carlo advance loop.

A fault of a native backend swaps the kernel onto the interpreted loop,
which resumes the run from the last phase boundary on the same random
stream, so a faulted sweep equals a clean one bit for bit.
"""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.montecarlo.jit import BACKEND_PYTHON, jit_compiled
from repro.resilience import FaultInjector
from repro.resilience.events import capture_degradations

from ..conftest import session_simulator, stepped_sweep

pytestmark = pytest.mark.skipif(
    not jit_compiled(), reason="no native jit backend loaded")

DRAIN_VOLTAGE = 2e-3
BIND_KWARGS = dict(temperature=1.0, seed=123, max_events=400,
                   warmup_events=50)


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    gates = np.linspace(0.25, 0.75, 3) * device.gate_period
    return SweepAxes(gates, DRAIN_VOLTAGE)


def chaos_all_compiled_entries():
    injector = FaultInjector()
    injector.arm("jit.run_compiled",
                 error=RuntimeError("injected jit crash"), times=None)
    return injector


class TestJitFallback:
    def test_single_trajectory_fallback_is_bit_identical_to_the_step_path(
            self, device, axes):
        jit_session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = jit_session.sweep(axes)
        assert chaos.fired("jit.run_compiled") == 1
        assert any(e.site == "jit.run_compiled"
                   and e.action == "fallback:python" for e in events)
        # The injected fault fires before any random draw, so the
        # interpreted loop replays the step loop bit for bit.
        currents, stderrs = stepped_sweep(
            session_simulator(device, DRAIN_VOLTAGE,
                              temperature=BIND_KWARGS["temperature"],
                              seed=BIND_KWARGS["seed"]),
            "VG", axes.gates, "J_drain",
            max_events=BIND_KWARGS["max_events"],
            warmup_events=BIND_KWARGS["warmup_events"])
        np.testing.assert_array_equal(degraded.currents, currents)
        np.testing.assert_array_equal(degraded.stderrs, stderrs)

    def test_fallback_swaps_in_the_interpreted_loop(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        assert session.simulator.kernel.jit_backend != BACKEND_PYTHON
        with chaos_all_compiled_entries():
            session.sweep(axes)
        assert session.simulator.kernel.jit_backend == BACKEND_PYTHON

    def test_ensemble_fallback_is_bit_identical_to_the_clean_sweep(
            self, device, axes):
        clean = get_engine("ensemble").bind(device, replicas=3,
                                            **BIND_KWARGS).sweep(axes)
        session = get_engine("ensemble").bind(device, replicas=3,
                                              **BIND_KWARGS)
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = session.sweep(axes)
        assert chaos.fired("jit.run_compiled") == 1
        assert [(e.site, e.action) for e in events] == [
            ("jit.run_compiled", "fallback:python")]
        np.testing.assert_array_equal(degraded.currents, clean.currents)
        np.testing.assert_array_equal(degraded.stderrs, clean.stderrs)

    @pytest.mark.parametrize("engine, options", [
        ("montecarlo", {}), ("ensemble-jit", {"replicas": 1}),
        ("ensemble", {"replicas": 3})])
    def test_fault_mid_sweep_is_bit_identical_to_the_clean_sweep(
            self, device, engine, options):
        # A sweep is one advance-loop run that checks the fault site at the
        # start of every point; failing the fifth leaves the first four
        # native and runs the fifth and the rest on the interpreted loop
        # from the same point boundary and random stream.
        axes = SweepAxes(np.linspace(0.0, device.gate_period, 9),
                         DRAIN_VOLTAGE)
        clean = get_engine(engine).bind(device, **options,
                                        **BIND_KWARGS).sweep(axes)
        session = get_engine(engine).bind(device, **options, **BIND_KWARGS)
        chaos = FaultInjector()
        chaos.arm("jit.run_compiled", error=RuntimeError("injected"),
                  after=4)
        with chaos, capture_degradations() as events:
            degraded = session.sweep(axes)
        assert chaos.fired("jit.run_compiled") == 1
        assert [(e.site, e.action) for e in events] == [
            ("jit.run_compiled", "fallback:python")]
        assert session.simulator.kernel.jit_backend == BACKEND_PYTHON
        np.testing.assert_array_equal(degraded.currents, clean.currents)
        np.testing.assert_array_equal(degraded.stderrs, clean.stderrs)

    @pytest.mark.parametrize("engine, options", [
        ("montecarlo", {}), ("ensemble", {"replicas": 3})])
    def test_fault_in_the_second_plan_block_is_bit_identical(
            self, device, engine, options):
        # A sweep is one advance-loop run; the fault site is checked at the
        # start of each point, so failing point 70 of 130 (inside the
        # second plan block) runs points 0-69 native and resumes point 70
        # on the interpreted loop, on the same random stream.
        axes = SweepAxes(np.linspace(0.0, 3.0 * device.gate_period, 130),
                         DRAIN_VOLTAGE)
        clean = get_engine(engine).bind(device, **options,
                                        **BIND_KWARGS).sweep(axes)
        session = get_engine(engine).bind(device, **options, **BIND_KWARGS)
        chaos = FaultInjector()
        chaos.arm("jit.run_compiled", error=RuntimeError("injected"),
                  after=70)
        with chaos, capture_degradations() as events:
            degraded = session.sweep(axes)
        assert chaos.fired("jit.run_compiled") == 1
        assert chaos.calls("jit.run_compiled") == 71
        assert [(e.site, e.action) for e in events] == [
            ("jit.run_compiled", "fallback:python")]
        assert session.simulator.kernel.jit_backend == BACKEND_PYTHON
        np.testing.assert_array_equal(degraded.currents, clean.currents)
        np.testing.assert_array_equal(degraded.stderrs, clean.stderrs)

    def test_clean_compiled_run_emits_no_degradation(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        with capture_degradations() as events:
            session.sweep(axes)
        assert events == []
        assert session.simulator.kernel.jit_backend != BACKEND_PYTHON
