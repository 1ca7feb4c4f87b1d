"""Tests for the engine registry and capability declarations."""

import pytest

from repro.engines import (
    EXACTNESS_CLASSES,
    CostModel,
    Engine,
    EngineCapabilities,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
)
from repro.errors import ValidationError


class TestRegistry:
    def test_builtin_engines_are_registered(self):
        assert {"analytic", "ensemble", "master",
                "montecarlo"} <= set(engine_names())

    def test_get_engine_resolves_every_listed_engine(self):
        for engine in list_engines():
            assert get_engine(engine.name) is engine

    def test_unknown_engine_raises_with_the_known_names(self):
        with pytest.raises(ValidationError, match="registered engines"):
            get_engine("spice")

    def test_registration_is_idempotent(self):
        engine = get_engine("master")
        assert register_engine(engine) is engine
        assert engine_names().count("master") == 1

    def test_registering_the_class_instead_of_an_instance_is_rejected(self):
        class Classy(Engine):
            name = "_classy"

            def capabilities(self):
                raise NotImplementedError

            def bind(self, device, *, temperature, seed=None,
                     background_charge=None, max_events=20_000,
                     warmup_events=1_000, replicas=0):
                raise NotImplementedError

        with pytest.raises(ValidationError, match="instance"):
            register_engine(Classy)

    def test_unnamed_engine_is_rejected(self):
        class Nameless(Engine):
            def capabilities(self):
                raise NotImplementedError

            def bind(self, device, *, temperature, seed=None,
                     background_charge=None, max_events=20_000,
                     warmup_events=1_000, replicas=0):
                raise NotImplementedError

        with pytest.raises(ValidationError, match="registry name"):
            register_engine(Nameless())

    def test_custom_engine_registration_and_cleanup(self):
        class Custom(Engine):
            name = "_custom_test_engine"

            def capabilities(self):
                return EngineCapabilities(
                    name=self.name, exactness="exact-sequential",
                    stochastic=False, supports_ensemble=False,
                    cost=CostModel(setup_s=1.0, per_point_s=1.0))

            def bind(self, device, *, temperature, seed=None,
                     background_charge=None, max_events=20_000,
                     warmup_events=1_000, replicas=0):
                raise NotImplementedError

        try:
            register_engine(Custom())
            assert "_custom_test_engine" in engine_names()
            assert get_engine("_custom_test_engine").capabilities().name \
                == "_custom_test_engine"
            # A registered engine is immediately a legal spec engine — the
            # spec layer validates against the registry, not a static list.
            from repro.scenarios import ScenarioSpec, known_engine_names

            assert "_custom_test_engine" in known_engine_names()
            spec = ScenarioSpec(name="_custom_spec",
                                engine="_custom_test_engine")
            assert spec.engine == "_custom_test_engine"
        finally:
            from repro.engines import unregister_engine

            assert unregister_engine("_custom_test_engine")
            assert not unregister_engine("_custom_test_engine")


class TestCapabilityDeclarations:
    def test_every_engine_declares_valid_capabilities(self):
        for engine in list_engines():
            caps = engine.capabilities()
            assert caps.name == engine.name
            assert caps.exactness in EXACTNESS_CLASSES
            assert caps.cost.setup_s > 0.0
            assert caps.cost.per_point_s > 0.0
            assert caps.description
            assert set(caps.flags()) == {"stochastic", "supports_ensemble"}

    def test_unknown_exactness_class_is_rejected(self):
        with pytest.raises(ValidationError, match="exactness"):
            EngineCapabilities(name="x", exactness="magic",
                               stochastic=False, supports_ensemble=False,
                                          cost=CostModel(setup_s=1.0, per_point_s=1.0))

    def test_ensemble_support_implies_stochastic(self):
        for engine in list_engines():
            caps = engine.capabilities()
            if caps.supports_ensemble:
                assert caps.stochastic

    def test_spec_engine_tuple_matches_the_registry(self):
        # The documented built-in ENGINES tuple must be a subset of what
        # the registry-backed validation accepts (plus "auto"), and every
        # built-in must actually be registered.
        from repro.scenarios.spec import ENGINES, known_engine_names

        assert set(ENGINES) <= set(known_engine_names())
        assert set(ENGINES) - {"auto"} <= set(engine_names())
        assert "auto" in known_engine_names()


class TestAutoSelectionTables:
    """``auto`` answers for the built-in registry, priced by its cost models.

    Re-pricing an engine (``CostModel.per_point_s``) must not silently move
    a selection: the design selector still picks ``analytic`` (1e-5 s per
    point) over ``master``, and every scenario keeps its engine.
    """

    def test_design_auto_and_explicit_names(self):
        from repro.design import DesignSpec, DeviceScan

        def design_engine(name):
            return DeviceScan(DesignSpec.from_dict({
                "name": "probe", "engine": name,
                "axes": [{"parameter": "gate_capacitance",
                          "values": [2e-18]}],
                "constraints": [{"type": "gain", "threshold": 1.0}]})).engine

        assert design_engine("auto").name == "analytic"
        for name in engine_names():
            assert design_engine(name).name == name

    def test_scenario_auto_table(self):
        from repro.scenarios import Budget, ScenarioSpec, SweepAxis
        from repro.scenarios.engines import select_engine
        from repro.scenarios.registry import iter_scenarios

        library = {scenario.spec.name: select_engine(scenario.spec)
                   for scenario in iter_scenarios()}
        assert library == {
            "background_charge_logic": "master",
            "coulomb_oscillations": "master",
            "design_margin_map": "master",
            "electrometer": "master",
            "gain_vs_temperature": "master",
            "power_dissipation": "analytic",
            "room_temperature_set": "analytic",
            "set_rng": "montecarlo",
            "setmos_quantizer": "analytic",
            "simulator_comparison": "master",
            "speed_limits": "master",
            "tolerance_yield": "master",
        }
        rules = {
            "deterministic": ScenarioSpec(name="x",
                                          observables=("current_A",)),
            "stochastic": ScenarioSpec(name="x",
                                       observables=("current_stderr_A",)),
            "replicas": ScenarioSpec(name="x",
                                     observables=("shot_noise_A",),
                                     budget=Budget(replicas=16)),
            "fast_sweep": ScenarioSpec(
                name="x", observables=("current_A",),
                sweeps=(SweepAxis("VG", start=0.0, stop=1.0, points=200),
                        SweepAxis("VD", start=0.0, stop=1.0, points=100)),
                params={"fidelity": "fast"}),
        }
        assert {rule: select_engine(spec) for rule, spec in rules.items()} \
            == {"deterministic": "master",
                "stochastic": "montecarlo",
                "replicas": "ensemble",
                "fast_sweep": "analytic"}


ALIASES = [("montecarlo-jit", "montecarlo"), ("ensemble-jit", "ensemble")]


class TestMonteCarloAliases:
    """The retired ``*-jit`` names resolve to their engines, unlisted."""

    @pytest.mark.parametrize("alias, name", ALIASES)
    def test_alias_is_the_same_engine_object(self, alias, name):
        assert get_engine(alias) is get_engine(name)

    @pytest.mark.parametrize("alias, name", ALIASES)
    def test_alias_is_accepted_by_specs_and_resolves_to_its_engine(
            self, alias, name):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.engines import select_engine

        spec = ScenarioSpec(name="x", engine=alias)
        assert spec.engine == alias
        assert select_engine(spec) == name

    def test_aliases_are_not_listed(self, capsys):
        import json

        from repro.cli import main

        engines = ["analytic", "ensemble", "master", "montecarlo"]
        assert engine_names() == engines
        assert main(["engines", "--json"]) == 0
        listed = [entry["name"] for entry in json.loads(
            capsys.readouterr().out)]
        assert listed == engines


def test_montecarlo_sweep_is_the_step_sweep_bit_for_bit():
    # Whichever backend runs the engine's advance loop, a seeded sweep
    # equals the per-event step loop's.
    import numpy as np

    from repro.devices import SETTransistor
    from repro.engines import SweepAxes

    from ..conftest import session_simulator, stepped_sweep

    device = SETTransistor()
    axes = SweepAxes(np.linspace(0.0, device.gate_period, 17), 5e-3)
    result = get_engine("montecarlo").bind(
        device, temperature=1.0, seed=77, max_events=600,
        warmup_events=60).sweep(axes)
    currents, stderrs = stepped_sweep(
        session_simulator(device, axes.drain_voltage, temperature=1.0,
                          seed=77),
        "VG", axes.gates, "J_drain", max_events=600, warmup_events=60)
    assert np.array_equal(result.currents, currents)
    assert np.array_equal(result.stderrs, stderrs)
