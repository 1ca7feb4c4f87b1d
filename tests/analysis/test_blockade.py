"""Tests for Coulomb-blockade analysis helpers."""

import numpy as np
import pytest

from repro.analysis import analyze_blockade, conduction_threshold, staircase_steps
from repro.devices import SETTransistor
from repro.errors import AnalysisError


def synthetic_iv(threshold=0.04, resistance=2e6, points=201, span=0.2):
    voltages = np.linspace(-span, span, points)
    currents = np.where(np.abs(voltages) > threshold,
                        np.sign(voltages) * (np.abs(voltages) - threshold) / resistance,
                        0.0)
    return voltages, currents


class TestConductionThreshold:
    def test_finds_the_synthetic_threshold(self):
        voltages, currents = synthetic_iv(threshold=0.04)
        positive = conduction_threshold(voltages, currents, side="positive")
        negative = conduction_threshold(voltages, currents, side="negative")
        assert positive == pytest.approx(0.045, abs=0.01)
        assert negative == pytest.approx(-0.045, abs=0.01)

    def test_returns_none_for_a_fully_blockaded_sweep(self):
        voltages = np.linspace(-0.01, 0.01, 21)
        assert conduction_threshold(voltages, np.zeros_like(voltages)) is None

    def test_invalid_side_rejected(self):
        with pytest.raises(AnalysisError):
            conduction_threshold([0, 1], [0, 1], side="up")


class TestAnalyzeBlockade:
    def test_gap_and_resistance(self):
        voltages, currents = synthetic_iv(threshold=0.04, resistance=2e6)
        analysis = analyze_blockade(voltages, currents)
        assert analysis.gap == pytest.approx(0.09, abs=0.02)
        assert analysis.asymptotic_resistance == pytest.approx(2e6, rel=0.2)

    def test_on_a_simulated_set(self):
        transistor = SETTransistor(junction_capacitance=1e-18,
                                   gate_capacitance=2e-18,
                                   junction_resistance=1e6)
        drains = np.linspace(-0.15, 0.15, 61)
        _, currents = transistor.id_vd(drains, gate_voltage=0.0, temperature=0.1)
        analysis = analyze_blockade(drains, currents)
        assert analysis.gap is not None
        # The blockade gap is of the order of e/C_sigma.
        assert 0.3 * transistor.blockade_voltage < analysis.gap \
            < 3.0 * transistor.blockade_voltage
        assert analysis.asymptotic_resistance == pytest.approx(
            transistor.series_resistance, rel=0.4)

    def test_degenerate_input_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_blockade([0.0], [0.0])


class TestStaircaseSteps:
    def test_finds_conductance_peaks(self):
        voltages = np.linspace(0.0, 1.0, 400)
        current = np.zeros_like(voltages)
        for step_position in (0.25, 0.5, 0.75):
            current += 1e-9 / (1.0 + np.exp(-(voltages - step_position) / 0.01))
        steps = staircase_steps(voltages, current, smoothing=3, prominence=0.5)
        assert len(steps) == 3
        assert steps[0] == pytest.approx(0.25, abs=0.02)
        assert steps[1] == pytest.approx(0.5, abs=0.02)

    def test_flat_curve_has_no_steps(self):
        voltages = np.linspace(0.0, 1.0, 100)
        assert staircase_steps(voltages, np.zeros_like(voltages)) == []

    def test_too_few_points_rejected(self):
        with pytest.raises(AnalysisError):
            staircase_steps([0, 1, 2], [0, 1, 2])
