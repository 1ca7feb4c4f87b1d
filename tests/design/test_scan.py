"""DeviceScan: classification, checkpoint resume, schedule independence."""

import json

import numpy as np
import pytest

from repro.design import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    DesignSpec,
    DeviceScan,
    FeasibilityMap,
    analyze_yield,
)
from repro.errors import ValidationError
from repro.io.results import ResultCache

from .conftest import TOLERANCES, make_spec


def comparable(feasibility):
    """Canonical JSON minus the run-dependent chunk counters."""
    payload = feasibility.to_payload()
    payload.pop("chunks_computed")
    payload.pop("chunks_resumed")
    return json.dumps(payload, sort_keys=True)


class TestResolveEngine:
    def test_explicit_names_pass_through(self):
        assert DeviceScan(make_spec(engine="master")).engine.name == "master"

    def test_auto_prefers_cheap_deterministic_available_engines(self):
        engine = DeviceScan(make_spec(engine="auto")).engine
        assert not engine.capabilities().stochastic


class TestScanClassification:
    def test_every_point_is_classified(self):
        feasibility = DeviceScan(make_spec()).run()
        assert isinstance(feasibility, FeasibilityMap)
        assert feasibility.size == 9
        assert sum(feasibility.counts().values()) == 9
        assert set(np.unique(feasibility.verdicts)) <= \
            {FEASIBLE, INFEASIBLE, UNKNOWN}
        assert feasibility.statuses == ("ok",) * 9
        assert not feasibility.is_partial

    def test_feasible_points_have_finite_positive_robustness_floor(self):
        feasibility = DeviceScan(make_spec()).run()
        robustness = feasibility.robustness_grid()
        verdicts = feasibility.verdict_grid()
        assert np.all(np.isfinite(robustness[verdicts == FEASIBLE]))
        assert np.all(robustness[verdicts == FEASIBLE] >= 0.0)

    def test_gain_margins_match_the_closed_form(self):
        # gain = Cg/Cj with Cj fixed at 1 aF: margin = Cg/Cj - 1 exactly.
        spec = make_spec()
        feasibility = DeviceScan(spec).run()
        gains = spec.axes[0].grid() / 1e-18
        assert np.allclose(feasibility.margin_grid("gain"), gains - 1.0)

    def test_environment_axes_override_the_spec_defaults(self):
        # At 300 K nothing survives the max_temperature constraint.
        spec = make_spec(axes=[
            {"parameter": "gate_capacitance", "values": [2e-18]},
            {"parameter": "temperature", "values": [0.5, 300.0]},
        ], chunk_size=1)
        feasibility = DeviceScan(spec).run()
        grid = feasibility.verdict_grid()
        assert grid[0, 0] == FEASIBLE
        assert grid[0, 1] == INFEASIBLE

    def test_most_robust_point_is_a_feasible_grid_point(self):
        feasibility = DeviceScan(make_spec()).run()
        best = feasibility.most_robust_point()
        assert best is not None
        assert feasibility.verdicts[best] == FEASIBLE
        feasible_margins = np.where(feasibility.verdicts == FEASIBLE,
                                    feasibility.robustness, -np.inf)
        assert feasibility.robustness[best] == np.nanmax(feasible_margins)
        assert set(feasibility.point_parameters(best)) == \
            {"gate_capacitance"}

    def test_master_engine_agrees_with_analytic_on_verdicts(self):
        analytic = DeviceScan(make_spec()).run()
        master = DeviceScan(make_spec(engine="master")).run()
        assert analytic.verdicts.tolist() == master.verdicts.tolist()

    def test_engine_solves_are_skipped_when_no_constraint_needs_them(self):
        spec = make_spec(constraints=[{"type": "gain", "threshold": 1.0}])
        feasibility = DeviceScan(spec).run()
        assert np.all(np.isnan(feasibility.on_currents))
        assert sum(feasibility.counts().values()) == 9


class TestCheckpointResume:
    def test_scan_resumes_bit_identically_from_cache(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        first = DeviceScan(spec, cache=cache)
        clean = first.run()
        assert first.chunks_computed == 3
        second = DeviceScan(spec, cache=cache)
        resumed = second.run()
        assert second.chunks_computed == 0
        assert second.chunks_resumed == 3
        assert comparable(resumed) == comparable(clean)
        assert resumed.payload_json() != ""   # NaN-safe canonical form

    def test_changed_spec_misses_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        DeviceScan(make_spec(), cache=cache).run()
        changed = DeviceScan(make_spec(temperature=2.0), cache=cache)
        changed.run()
        assert changed.chunks_resumed == 0
        assert changed.chunks_computed == 3

    def test_chunk_plan_is_stable_and_keyed(self, tmp_path):
        scan = DeviceScan(make_spec(), cache=ResultCache(str(tmp_path)))
        plan = scan.chunk_plan()
        assert [chunk.start for chunk in plan] == [0, 3, 6]
        assert all(chunk.key for chunk in plan)
        assert plan == scan.chunk_plan()
        assert len({chunk.key for chunk in plan}) == 3


class TestScheduleIndependence:
    def test_worker_count_does_not_change_the_map(self):
        spec = make_spec(chunk_size=2)
        serial = DeviceScan(spec).run(workers=1)
        parallel = DeviceScan(spec).run(workers=3)
        assert comparable(serial) == comparable(parallel)

    def test_axis_order_does_not_change_tolerance_yields(self):
        # Regression: MC draws key on (root seed, element, sample index)
        # only, so transposing the grid transposes the yield map exactly.
        axes = [{"parameter": "gate_capacitance",
                 "values": [1.5e-18, 2e-18, 3e-18]},
                {"parameter": "temperature", "values": [0.5, 1.0]}]
        forward = DeviceScan(make_spec(
            axes=axes, tolerances=TOLERANCES, tolerance_samples=16,
            seed=11)).run()
        transposed = DeviceScan(make_spec(
            axes=list(reversed(axes)), tolerances=TOLERANCES,
            tolerance_samples=16, seed=11)).run()
        assert np.array_equal(forward.yield_grid(),
                              transposed.yield_grid().T)

    def test_tolerance_yields_are_identical_across_workers(self):
        spec = make_spec(axes=[{"parameter": "gate_capacitance",
                                "values": [1.5e-18, 2e-18, 3e-18, 4e-18]}],
                         tolerances=TOLERANCES, tolerance_samples=16,
                         chunk_size=1, seed=11)
        serial = DeviceScan(spec).run(workers=1)
        parallel = DeviceScan(spec).run(workers=2)
        assert serial.yields is not None
        assert np.array_equal(serial.yields, parallel.yields)


class TestYieldAnalysis:
    def test_report_is_consistent_with_its_fractions(self):
        spec = make_spec(tolerances=TOLERANCES, tolerance_samples=16)
        report = analyze_yield(spec, flat_index=4)
        assert report.samples == 16
        assert report.yield_fraction == \
            pytest.approx(report.feasible_samples / 16)
        assert len(report.corners) == 4   # two toleranced elements
        assert report.worst_case_feasible == \
            all(corner["feasible"] for corner in report.corners)
        payload = report.to_payload()
        assert payload["point"]["gate_capacitance"] == \
            pytest.approx(spec.point_parameters(4)["gate_capacitance"])

    def test_yield_analysis_requires_tolerances(self):
        with pytest.raises(ValidationError, match="tolerances"):
            analyze_yield(make_spec())


class TestStochasticScans:
    def test_montecarlo_scan_is_seed_reproducible(self):
        spec = make_spec(
            engine="montecarlo",
            axes=[{"parameter": "gate_capacitance",
                   "values": [1.5e-18, 2.5e-18]}],
            budget={"max_events": 300, "warmup_events": 30},
            seed=9)
        first = DeviceScan(spec).run()
        second = DeviceScan(spec).run()
        assert comparable(first) == comparable(second)
        different = DeviceScan(
            DesignSpec.from_dict({**spec.to_dict(), "seed": 10})).run()
        assert first.on_currents.tolist() != different.on_currents.tolist()


class TestBatchFailureIsolation:
    """One chunk is one batch, but failures stay per point."""

    def test_unbuildable_points_fail_alone_under_policy(self):
        from repro.resilience import FailurePolicy

        spec = make_spec(axes=[{"parameter": "gate_capacitance",
                                "values": [2e-18, -1e-18, 3e-18]}])
        feasibility = DeviceScan(
            spec, policy=FailurePolicy(max_retries=1)).run()
        assert feasibility.statuses == ("ok", "failed", "ok")
        assert feasibility.verdicts[1] == UNKNOWN
        clean = DeviceScan(make_spec(axes=[{
            "parameter": "gate_capacitance",
            "values": [2e-18, 3e-18]}])).run()
        assert feasibility.on_currents[[0, 2]].tolist() == \
            clean.on_currents.tolist()

    @pytest.mark.parametrize("parameter, good, bad", [
        ("gate_capacitance", 2e-18, float("nan")),
        ("junction_capacitance", 1e-18, float("inf")),
        ("junction_resistance", 1e6, float("nan")),
    ])
    def test_non_finite_points_fail_alone_under_policy(self, parameter,
                                                       good, bad):
        from repro.devices import SETTransistor
        from repro.engines import DeviceTable
        from repro.resilience import FailurePolicy

        table = DeviceTable(base=SETTransistor(),
                            columns={parameter: np.array([good, bad, good])},
                            temperature=np.ones(3))
        assert table.rejected().tolist() == [False, True, False]
        spec = make_spec(axes=[{"parameter": parameter,
                                "values": [good, bad, 2.0 * good]}])
        feasibility = DeviceScan(
            spec, policy=FailurePolicy(max_retries=1)).run()
        assert feasibility.statuses == ("ok", "failed", "ok")
        assert feasibility.verdicts[1] == UNKNOWN
        assert np.isfinite(feasibility.on_currents[[0, 2]]).all()

    def test_unbuildable_points_abort_without_policy(self):
        from repro.errors import CircuitError

        spec = make_spec(axes=[{"parameter": "gate_capacitance",
                                "values": [2e-18, -1e-18]}])
        with pytest.raises(CircuitError, match="gate_capacitance"):
            DeviceScan(spec).run()

    def test_engine_rejections_degrade_only_their_rows(self):
        from repro.resilience import FailurePolicy

        spec = make_spec(axes=[{"parameter": "drain_resistance",
                                "values": [1e6, -1e6, 2e6]}])
        feasibility = DeviceScan(spec, policy=FailurePolicy()).run()
        assert feasibility.statuses == ("ok", "failed", "ok")
        assert np.isfinite(feasibility.on_currents[[0, 2]]).all()
        assert np.isnan(feasibility.on_currents[1])

    def test_blocked_engine_calls_give_the_same_map(self, monkeypatch):
        from repro.design import scan as scan_module
        from repro.resilience import FailurePolicy

        spec = make_spec(axes=[{"parameter": "drain_resistance",
                                "values": [1e6, 2e6, 3e6, -1e6, 4e6]}],
                         tolerances=TOLERANCES, tolerance_samples=3,
                         chunk_size=5)
        whole = comparable(DeviceScan(spec, policy=FailurePolicy()).run())
        monkeypatch.setattr(scan_module, "_BATCH_ROWS", 2)
        blocked = DeviceScan(spec, policy=FailurePolicy()).run()
        assert blocked.statuses == ("ok", "ok", "ok", "failed", "ok")
        assert comparable(blocked) == whole
