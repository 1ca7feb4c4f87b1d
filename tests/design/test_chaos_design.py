"""Chaos tests: design scans must degrade, stay partial, and resume."""

import numpy as np
import pytest

from repro.design import UNKNOWN, DeviceScan
from repro.errors import FaultInjected
from repro.io.results import ResultCache
from repro.master import statespace, steadystate
from repro.resilience import FailurePolicy, FaultInjector
from repro.resilience.events import capture_degradations
from repro.resilience.faults import SITES

from .conftest import make_spec
from .test_scan import comparable


class TestFaultSites:
    def test_design_sites_are_registered(self):
        assert "design.point" in SITES
        assert "design.chunk" in SITES

    def test_arming_an_unknown_site_fails(self):
        with pytest.raises(Exception, match="unknown fault site"):
            FaultInjector(seed=1).arm("design.bogus")


class TestMidScanCrash:
    def test_crash_without_policy_propagates_but_checkpoints_survive(
            self, tmp_path):
        spec = make_spec()
        clean = comparable(DeviceScan(spec).run())
        cache = ResultCache(str(tmp_path))
        interrupted = DeviceScan(spec, cache=cache)
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", after=2, times=1)
        with pytest.raises(FaultInjected):
            with chaos:
                interrupted.run()
        assert interrupted.chunks_computed == 2
        resumer = DeviceScan(spec, cache=cache)
        resumed = resumer.run()
        assert resumer.chunks_resumed == 2
        assert resumer.chunks_computed == 1
        assert comparable(resumed) == clean
        # Two fully-resumed runs share even the chunk counters, so the
        # complete canonical JSON (NaN slots included) is byte-identical.
        assert DeviceScan(spec, cache=cache).run().payload_json() == \
            DeviceScan(spec, cache=cache).run().payload_json()

    def test_chunk_loss_under_policy_yields_a_partial_resumable_map(
            self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        policy = FailurePolicy.lenient()
        damaged_scan = DeviceScan(spec, cache=cache, policy=policy)
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", after=1, times=1)
        with chaos:
            damaged = damaged_scan.run()
        # No abort: the middle chunk is lost, its points stay unknown.
        assert damaged_scan.chunks_failed == 1
        assert damaged.is_partial
        assert damaged.counts()["unknown"] == 3
        assert damaged.statuses.count("skipped") == 3
        assert np.all(np.isnan(
            damaged.robustness[damaged.verdicts == UNKNOWN]))
        # The lost chunk was never cached, so a plain re-run completes the
        # map — and the completed map matches a never-faulted run exactly.
        healed_scan = DeviceScan(spec, cache=cache, policy=policy)
        healed = healed_scan.run()
        assert healed_scan.chunks_resumed == 2
        assert healed_scan.chunks_computed == 1
        assert not healed.is_partial
        assert comparable(healed) == comparable(
            DeviceScan(spec, policy=policy).run())


class TestFallbackEvidence:
    """Points solved through a fallback rung read ``degraded``."""

    def master_spec(self):
        # Warm enough (kT/E_C ~ 0.6) that a +-3 window leaks probability.
        return make_spec(engine="master", temperature=200.0,
                         axes=[{"parameter": "gate_capacitance",
                                "start": 5e-19, "stop": 5e-18, "points": 4,
                                "spacing": "log"}], chunk_size=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_window_marks_master_points_degraded(
            self, monkeypatch, workers):
        spec = self.master_spec()
        with capture_degradations() as events:
            clean = DeviceScan(spec, policy=FailurePolicy()).run(
                workers=workers)
        assert not events
        assert set(clean.statuses) == {"ok"}
        # Cap the windows at 7 states: the chain cannot widen and keeps
        # the truncated window, as a session would.
        monkeypatch.setattr(statespace, "MAX_STATES", 7)
        with capture_degradations() as events:
            degraded = DeviceScan(spec, policy=FailurePolicy()).run(
                workers=workers)
        assert {event.site for event in events} == {"master.window_truncated"}
        assert set(degraded.statuses) == {"degraded"}
        assert np.array_equal(degraded.verdicts, clean.verdicts)

    @staticmethod
    def scan_under_failing_splu(monkeypatch, workers, drain, offset):
        """A T = 0 master scan, clean and with every ``splu`` failing.

        ``offset`` puts the source junction exactly at degeneracy in
        state 0 at gate 0: 0 -> 1 has a rate and 1 -> 0 has none, so the
        chain there is reducible and that point, alone, goes to the
        master-equation solver (see test_exact_tier).
        """
        monkeypatch.setattr(steadystate, "DENSE_STATE_CUTOFF", 0)
        spec = make_spec(engine="master", temperature=0.0,
                         drain_voltage=drain,
                         device={"background_charge": offset},
                         on_gate_fraction=0.94,
                         axes=[{"parameter": "gate_capacitance",
                                "start": 2e-18, "stop": 3e-18,
                                "points": 2}], chunk_size=2)
        clean = DeviceScan(spec, policy=FailurePolicy()).run(workers=workers)
        assert set(clean.statuses) == {"ok"}
        chaos = FaultInjector()
        chaos.arm("steadystate.splu", error=RuntimeError("injected"),
                  times=None)
        with chaos, capture_degradations() as events:
            degraded = DeviceScan(spec, policy=FailurePolicy()).run(
                workers=workers)
        assert np.array_equal(degraded.verdicts, clean.verdicts)
        return {event.site for event in events}, set(degraded.statuses)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sparse_fallback_marks_master_points_degraded(
            self, monkeypatch, workers):
        # Past -40 mV the drain also feeds 1 -> 2, so the mass settles in a
        # conducting class {1, 2}, whose sparse solve factorises a
        # generator block.
        sites, statuses = self.scan_under_failing_splu(
            monkeypatch, workers, -0.06, 1.401088317e-19)
        assert "steadystate.splu" in sites
        assert statuses == {"degraded"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_absorbing_fallback_state_needs_no_factorisation(
            self, monkeypatch, workers):
        # At -10 mV the mass is trapped in state 1 alone: the solver's
        # one-state class needs no factorisation, and the chain solves
        # every other point, so a failing splu leaves the scan clean.
        sites, statuses = self.scan_under_failing_splu(
            monkeypatch, workers, -0.010000000000000018,
            9.010883170000001e-20)
        assert not sites
        assert statuses == {"ok"}


class TestPointDegradation:
    def test_point_failures_degrade_to_unknown_verdicts(self):
        spec = make_spec()
        policy = FailurePolicy(max_retries=0)
        scan = DeviceScan(spec, policy=policy)
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=3, times=2,
                  error=RuntimeError("engine blew up"))
        with chaos:
            feasibility = scan.run()
        assert feasibility.statuses.count("failed") == 2
        assert feasibility.counts()["unknown"] == 2
        assert feasibility.is_partial
        # The surviving points still classified normally.
        assert feasibility.counts()["feasible"] > 0

    def test_retries_absorb_transient_point_failures(self):
        spec = make_spec()
        scan = DeviceScan(spec, policy=FailurePolicy(max_retries=1))
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=3, times=1,
                  error=RuntimeError("transient"))
        with chaos:
            feasibility = scan.run()
        assert feasibility.statuses == ("ok",) * 9
        assert not feasibility.is_partial
        assert comparable(feasibility) == comparable(
            DeviceScan(spec, policy=FailurePolicy(max_retries=1)).run())

    def test_max_failures_skips_the_rest_of_the_chunk(self):
        spec = make_spec(chunk_size=9)
        policy = FailurePolicy(max_retries=0, max_failures=1)
        scan = DeviceScan(spec, policy=policy)
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=2, times=9,
                  error=RuntimeError("persistent"))
        with chaos:
            feasibility = scan.run()
        statuses = list(feasibility.statuses)
        assert statuses[:2] == ["ok", "ok"]
        assert statuses.count("failed") == 2   # budget is max_failures + 1
        assert statuses.count("skipped") == 5
        assert feasibility.counts()["unknown"] == 7

    def test_point_failure_without_policy_aborts(self):
        scan = DeviceScan(make_spec())
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=1, times=1,
                  error=RuntimeError("fatal"))
        with chaos:
            with pytest.raises(RuntimeError, match="fatal"):
                scan.run()
