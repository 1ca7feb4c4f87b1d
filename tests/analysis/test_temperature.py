"""Tests for temperature-scaling helpers (experiment E4 machinery)."""

import numpy as np
import pytest

from repro.analysis import (
    diameter_for_capacitance,
    diameter_for_temperature,
    island_self_capacitance,
    max_operating_temperature_for_diameter,
    oscillation_visibility,
    simulated_oscillation_visibility,
    temperature_scaling_table,
)
from repro.compact import AnalyticSETModel
from repro.errors import AnalysisError
from repro.units import nanometre


class TestSelfCapacitance:
    def test_ten_nanometre_island_is_attofarad_class(self):
        capacitance = island_self_capacitance(nanometre(10.0))
        assert 1e-19 < capacitance < 1e-17

    def test_roundtrip_with_diameter(self):
        capacitance = island_self_capacitance(nanometre(7.0))
        assert diameter_for_capacitance(capacitance) == pytest.approx(nanometre(7.0))

    def test_scales_linearly_with_diameter(self):
        assert island_self_capacitance(2e-9) == pytest.approx(
            2.0 * island_self_capacitance(1e-9))

    def test_invalid_diameter(self):
        with pytest.raises(AnalysisError):
            island_self_capacitance(0.0)


class TestOperatingTemperature:
    def test_room_temperature_needs_nanometre_scale_islands(self):
        # The paper's claim: room-temperature operation requires structures in
        # the few-nanometre regime (or below, with the conservative 40 kT
        # margin and an SiO2 embedding used here).
        strict = diameter_for_temperature(300.0)
        relaxed = diameter_for_temperature(300.0, margin=10.0)
        assert strict < nanometre(5.0)
        assert nanometre(0.1) < strict
        assert relaxed < nanometre(10.0)
        assert relaxed > strict

    def test_larger_islands_only_work_cold(self):
        assert max_operating_temperature_for_diameter(nanometre(100.0)) < 77.0
        assert max_operating_temperature_for_diameter(nanometre(2.0)) > 30.0
        assert max_operating_temperature_for_diameter(nanometre(2.0), margin=10.0) \
            > 200.0

    def test_junction_capacitance_lowers_the_limit_further(self):
        bare = max_operating_temperature_for_diameter(nanometre(5.0))
        loaded = max_operating_temperature_for_diameter(nanometre(5.0),
                                                        junction_capacitance=2e-18)
        assert loaded < 0.5 * bare

    def test_impossible_budget_raises(self):
        with pytest.raises(AnalysisError):
            diameter_for_temperature(300.0, junction_capacitance=1e-17)

    def test_monotone_in_diameter(self):
        diameters = [nanometre(d) for d in (1.0, 3.0, 10.0, 30.0, 100.0)]
        temperatures = [max_operating_temperature_for_diameter(d) for d in diameters]
        assert all(a > b for a, b in zip(temperatures, temperatures[1:]))


class TestScalingTable:
    def test_table_rows(self):
        diameters = [nanometre(d) for d in (1.0, 10.0, 50.0)]
        rows = temperature_scaling_table(diameters, margin=10.0)
        assert len(rows) == 3
        assert rows[0].room_temperature_ok
        assert not rows[2].room_temperature_ok
        assert rows[0].charging_energy > rows[2].charging_energy


class TestVisibility:
    def test_limits(self):
        assert oscillation_visibility(1e-18, 0.0) == 1.0
        assert oscillation_visibility(1e-18, 1e5) < 0.01

    def test_monotone_in_temperature(self):
        temperatures = [0.1, 1.0, 10.0, 100.0, 1000.0]
        values = [oscillation_visibility(1e-18, t) for t in temperatures]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_simulated_visibility_tracks_the_analytic_trend(self):
        cold = simulated_oscillation_visibility(AnalyticSETModel(temperature=1.0), 1.0)
        warm = simulated_oscillation_visibility(AnalyticSETModel(temperature=40.0), 40.0)
        assert cold > warm
        assert cold > 0.9

    def test_invalid_temperature(self):
        with pytest.raises(AnalysisError):
            oscillation_visibility(1e-18, -1.0)

    def test_session_sweep_matches_scalar_loop(self):
        # The broadcast drain_current_map sweep the visibility runs must
        # reproduce the per-point scalar evaluation exactly.
        model = AnalyticSETModel(temperature=5.0)
        drain = 0.1 * 1.602176634e-19 / model.total_capacitance
        gates = np.linspace(0.0, model.gate_period, 41)
        scalar = np.array([model.drain_current(drain, vg) for vg in gates])
        batched = model.drain_current_map([drain], gates)[0]
        assert np.allclose(batched, scalar, rtol=1e-12, atol=0.0)

    def test_scalar_only_models_are_rejected_with_a_clear_error(self):
        # The scalar duck-type fallback is gone: models must expose the
        # broadcast drain_current_map interface (all repro.compact SET
        # models do).
        from repro.errors import ValidationError

        reference = AnalyticSETModel(temperature=5.0)

        class ScalarOnly:
            gate_period = reference.gate_period
            total_capacitance = reference.total_capacitance

            def drain_current(self, vd, vg, source_voltage=0.0):
                if not np.isscalar(vg):
                    raise TypeError("scalar only")
                return reference.drain_current(vd, vg, source_voltage)

        with pytest.raises(ValidationError, match="drain_current_map"):
            simulated_oscillation_visibility(ScalarOnly(), 5.0)
