"""Tests for Monte-Carlo observables and statistics helpers."""

import pytest

from repro.constants import E_CHARGE
from repro.errors import AnalysisError
from repro.montecarlo import (
    CurrentEstimate,
    EventRecord,
    OccupationStatistics,
    TrajectoryResult,
    block_average,
)


class TestTrajectoryResult:
    def _make(self, duration=1e-6, transfers=None):
        return TrajectoryResult(
            duration=duration,
            event_count=10,
            electron_transfers=transfers or {"J1": -1000.0},
            final_electrons=(0,),
        )

    def test_mean_current_from_charge_counting(self):
        result = self._make()
        # -1000 electrons crossed a->b, i.e. conventional current of
        # +1000 e / duration from a to b.
        assert result.mean_current("J1") == pytest.approx(1000.0 * E_CHARGE / 1e-6)

    def test_unknown_junction_raises(self):
        with pytest.raises(AnalysisError):
            self._make().mean_current("missing")

    def test_zero_duration_raises(self):
        with pytest.raises(AnalysisError):
            self._make(duration=0.0).mean_current("J1")

    def test_switching_times_filters_by_label(self):
        result = self._make()
        result.records = [
            EventRecord(1e-9, "tunnel:J1:a->b", (1,)),
            EventRecord(2e-9, "trap:T1:capture", (1,)),
            EventRecord(3e-9, "tunnel:J1:b->a", (0,)),
        ]
        assert list(result.switching_times()) == [1e-9, 3e-9]
        assert list(result.switching_times("trap:")) == [2e-9]


class TestCurrentEstimate:
    def test_agreement_window(self):
        estimate = CurrentEstimate(mean=1.0e-9, stderr=0.05e-9, blocks=10,
                                   duration=1e-3, events=1000)
        assert estimate.agrees_with(1.1e-9, sigmas=4.0)
        assert not estimate.agrees_with(2.0e-9, sigmas=4.0)

    def test_absolute_tolerance_extends_window(self):
        estimate = CurrentEstimate(mean=0.0, stderr=0.0, blocks=5,
                                   duration=1e-3, events=0)
        assert estimate.agrees_with(1e-15, absolute=1e-14)


class TestBlockAverage:
    def test_constant_ratio(self):
        mean, stderr, blocks = block_average([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert blocks == 3

    def test_variance_reflected_in_stderr(self):
        mean, stderr, _ = block_average([1.0, 3.0], [1.0, 1.0])
        assert mean == pytest.approx(2.0)
        assert stderr > 0.0

    def test_zero_weight_blocks_are_dropped(self):
        mean, _, blocks = block_average([1.0, 99.0], [1.0, 0.0])
        assert blocks == 1
        assert mean == pytest.approx(1.0)

    def test_all_empty_blocks_raise(self):
        with pytest.raises(AnalysisError):
            block_average([1.0], [0.0])


class TestOccupationStatistics:
    def test_probabilities_normalise(self):
        stats = OccupationStatistics()
        stats.record((0,), 3.0)
        stats.record((1,), 1.0)
        probabilities = stats.probabilities()
        assert probabilities[(0,)] == pytest.approx(0.75)
        assert probabilities[(1,)] == pytest.approx(0.25)

    def test_mean_electrons(self):
        stats = OccupationStatistics()
        stats.record((0,), 1.0)
        stats.record((2,), 1.0)
        assert stats.mean_electrons()[0] == pytest.approx(1.0)

    def test_empty_statistics_raise(self):
        with pytest.raises(AnalysisError):
            OccupationStatistics().mean_electrons()
