"""Tests for the cache-aware scenario runner and engine selection."""

import pytest

from repro.errors import ValidationError
from repro.io import ResultCache
from repro.scenarios import (
    Budget,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    SweepAxis,
    select_engine,
)


def counting_scenario(name="_counted", engine="analytic"):
    """An ad-hoc scenario whose compute records every invocation."""
    calls = []

    def compute(spec, context):
        calls.append(spec.content_hash())
        result = ScenarioResult(name=spec.name, engine=context.engine)
        result.metrics["value"] = 42.0 + len(calls)
        return result

    spec = ScenarioSpec(name=name, engine=engine, seed=3)
    return Scenario(spec=spec, compute=compute, title="counted",
                    claim="-", expected=("value",),
                    supported_engines=("analytic", "master")), calls


class TestEngineSelection:
    def test_explicit_engine_wins(self):
        spec = ScenarioSpec(name="x", engine="analytic",
                            observables=("current_stderr_A",))
        assert select_engine(spec) == "analytic"

    def test_stochastic_observables_pick_monte_carlo(self):
        spec = ScenarioSpec(name="x", observables=("current_stderr_A",))
        expected = "montecarlo"
        assert select_engine(spec) == expected

    def test_stochastic_with_replicas_picks_ensemble(self):
        spec = ScenarioSpec(name="x", observables=("shot_noise_A",),
                            budget=Budget(replicas=16))
        assert select_engine(spec) == "ensemble"

    def test_selection_does_not_depend_on_the_backend(self, python_backend):
        # Without a native advance loop the Monte-Carlo engines run the
        # interpreted one, and auto picks them all the same.
        single = ScenarioSpec(name="x", observables=("current_stderr_A",))
        batched = ScenarioSpec(name="x", observables=("shot_noise_A",),
                               budget=Budget(replicas=16))
        assert select_engine(single) == "montecarlo"
        assert select_engine(batched) == "ensemble"

    def test_deterministic_default_is_master(self):
        spec = ScenarioSpec(name="x", observables=("current_A",))
        assert select_engine(spec) == "master"

    def test_huge_fast_sweeps_go_analytic(self):
        spec = ScenarioSpec(
            name="x", observables=("current_A",),
            sweeps=(SweepAxis("VG", start=0.0, stop=1.0, points=200),
                    SweepAxis("VD", start=0.0, stop=1.0, points=100)),
            params={"fidelity": "fast"})
        assert select_engine(spec) == "analytic"


class TestRunnerCache:
    def test_second_run_is_served_from_cache_without_dispatch(self, tmp_path):
        scenario, calls = counting_scenario()
        logged = []
        runner = ScenarioRunner(cache_dir=tmp_path, log=logged.append)
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert len(calls) == 1  # the hit skipped compute entirely
        assert first.meta["cache"] == "miss"
        assert second.meta["cache"] == "hit"
        assert second.cache_hit
        assert any("cache hit" in line and "no engine dispatch" in line
                   for line in logged)
        assert second.metrics == first.metrics

    def test_spec_change_misses(self, tmp_path):
        scenario, calls = counting_scenario()
        runner = ScenarioRunner(cache_dir=tmp_path)
        runner.run(scenario)
        import dataclasses

        changed = Scenario(spec=dataclasses.replace(scenario.spec, seed=4),
                           compute=scenario.compute)
        runner.run(changed)
        assert len(calls) == 2

    def test_engine_override_changes_cache_identity(self, tmp_path):
        scenario, calls = counting_scenario(engine="analytic")
        runner = ScenarioRunner(cache_dir=tmp_path)
        runner.run(scenario)
        runner.run(scenario, engine="master")
        assert len(calls) == 2
        runner.run(scenario, engine="master")
        assert len(calls) == 2  # second override run hits

    def test_no_cache_always_recomputes_and_never_writes(self, tmp_path):
        scenario, calls = counting_scenario()
        runner = ScenarioRunner(use_cache=False, cache_dir=tmp_path)
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert len(calls) == 2
        assert first.meta["cache"] == "off"
        assert second.meta["cache"] == "off"
        assert list(tmp_path.glob("*.json")) == []

    def test_corrupted_artifact_triggers_recompute(self, tmp_path):
        scenario, calls = counting_scenario()
        runner = ScenarioRunner(cache_dir=tmp_path)
        first = runner.run(scenario)
        artifact = tmp_path / f"{first.meta['cache_key']}.json"
        artifact.write_text("{broken")
        again = runner.run(scenario)
        assert len(calls) == 2
        assert again.meta["cache"] == "miss"
        # And the repaired artifact serves the next run.
        assert runner.run(scenario).cache_hit

    def test_pinned_scenario_rejects_engine_override(self, tmp_path):
        # electrometer's compute is pinned to the master engine; claiming a
        # Monte-Carlo run would mislabel the cached artifact.
        runner = ScenarioRunner(cache_dir=tmp_path)
        with pytest.raises(ValidationError, match="does not dispatch"):
            runner.run("electrometer", engine="montecarlo")

    def test_dispatching_scenario_accepts_engine_override(self, tmp_path):
        runner = ScenarioRunner(cache_dir=tmp_path)
        result = runner.run("coulomb_oscillations", engine="analytic")
        assert result.engine == "analytic"

    def test_compute_must_return_scenario_result(self, tmp_path):
        scenario = Scenario(
            spec=ScenarioSpec(name="_bad", engine="analytic"),
            compute=lambda spec, context: {"not": "a result"})
        runner = ScenarioRunner(cache_dir=tmp_path)
        with pytest.raises(ValidationError, match="ScenarioResult"):
            runner.run(scenario)

    def test_injected_cache_object_is_used(self, tmp_path):
        scenario, calls = counting_scenario()
        cache = ResultCache(tmp_path, code_version="test")
        ScenarioRunner(cache=cache).run(scenario)
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestRoundTrip:
    def test_cached_run_byte_matches_a_fresh_seeded_run(self, tmp_path):
        # speed_limits is cheap and fully deterministic.
        runner = ScenarioRunner(cache_dir=tmp_path)
        first = runner.run("speed_limits")
        cached = runner.run("speed_limits")
        fresh = ScenarioRunner(use_cache=False).run("speed_limits")
        assert cached.cache_hit
        assert cached.payload_json() == first.payload_json()
        assert cached.payload_json() == fresh.payload_json()

    def test_run_spec_executes_ad_hoc_spec_documents(self, tmp_path):
        from repro.scenarios import get_scenario

        base = get_scenario("electrometer").spec
        import dataclasses

        tweaked = dataclasses.replace(
            base, sweeps=(SweepAxis("VG", start=0.0, stop=0.08, points=3),))
        runner = ScenarioRunner(cache_dir=tmp_path)
        result = runner.run_spec(tweaked)
        assert result.name == "electrometer"
        assert result.record("sensitivity_profile").sweep_values.size == 3
        assert runner.run_spec(tweaked).cache_hit
