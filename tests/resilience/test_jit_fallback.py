"""Tests for the compiled-kernel -> numpy fallback of the Monte-Carlo engines."""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.montecarlo.jit import jit_compiled
from repro.resilience import FaultInjector
from repro.resilience.events import capture_degradations

from ..conftest import session_simulator

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
    def test_single_trajectory_fallback_is_bit_identical_to_numpy(
            self, device, axes):
        jit_session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        numpy_simulator = session_simulator(
            device, DRAIN_VOLTAGE, jit=False,
            temperature=BIND_KWARGS["temperature"], seed=BIND_KWARGS["seed"])
        assert numpy_simulator.kernel.jit_backend is None
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = jit_session.sweep(axes)
        assert chaos.fired("jit.run_compiled") >= 1
        assert any(e.site == "jit.run_compiled"
                   and e.action == "fallback:numpy" for e in events)
        # The injected fault fires before any random draw, so the numpy
        # fallback replays the interpreted engine bit for bit.
        _, currents, stderrs = numpy_simulator.sweep_source(
            "VG", axes.gates, "J_drain",
            max_events=BIND_KWARGS["max_events"],
            warmup_events=BIND_KWARGS["warmup_events"], warm_start=True)
        np.testing.assert_array_equal(degraded.currents, currents)
        np.testing.assert_array_equal(degraded.stderrs, stderrs)

    def test_fallback_disables_the_kernel_jit(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        assert session.simulator.kernel.jit_enabled
        with chaos_all_compiled_entries():
            session.sweep(axes)
        assert not session.simulator.kernel.jit_enabled

    def test_ensemble_fallback_is_bit_identical_to_numpy(self, device, axes):
        jit_session = get_engine("ensemble-jit").bind(device, replicas=3,
                                                      **BIND_KWARGS)
        numpy_session = get_engine("ensemble").bind(device, replicas=3,
                                                    **BIND_KWARGS)
        assert numpy_session.simulator.kernel.jit_backend is None
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = jit_session.sweep(axes)
        assert any(e.site == "jit.run_compiled" for e in events)
        reference = numpy_session.sweep(axes)
        np.testing.assert_array_equal(degraded.currents, reference.currents)
        np.testing.assert_array_equal(degraded.stderrs, reference.stderrs)

    @pytest.mark.parametrize("engine, options", [
        ("montecarlo", {}), ("ensemble-jit", {"replicas": 1})])
    def test_fault_mid_sweep_is_bit_identical_to_the_clean_sweep(
            self, device, engine, options):
        # Every sweep point is one compiled call; failing the fifth leaves
        # the first four compiled and runs the rest on the numpy path,
        # which replays the compiled trajectory bit for bit (for R > 1 the
        # numpy ensemble interleaves replicas per macro-step instead).
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
            ("jit.run_compiled", "fallback:numpy")]
        assert not session.simulator.kernel.jit_enabled
        np.testing.assert_array_equal(degraded.currents, clean.currents)
        np.testing.assert_array_equal(degraded.stderrs, clean.stderrs)

    def test_clean_compiled_run_emits_no_degradation(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        with capture_degradations() as events:
            session.sweep(axes)
        assert events == []
        assert session.simulator.kernel.jit_enabled
