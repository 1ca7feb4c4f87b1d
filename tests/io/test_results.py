"""Tests for result containers and CSV round-trips."""

import io

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.io import SweepRecord


@pytest.fixture
def record():
    return SweepRecord(
        name="id_vg",
        sweep_label="V_gate [V]",
        sweep_values=np.linspace(0.0, 0.1, 6),
        traces={"I_drain [A]": np.linspace(0.0, 1e-9, 6)},
        metadata={"temperature": "1.0 K", "device": "standard"},
    )


class TestSweepRecord:
    def test_trace_lookup(self, record):
        assert record.trace("I_drain [A]")[-1] == pytest.approx(1e-9)
        with pytest.raises(AnalysisError):
            record.trace("missing")

    def test_add_trace_validates_length(self, record):
        record.add_trace("noise", np.zeros(6))
        assert "noise" in record.traces
        with pytest.raises(AnalysisError):
            record.add_trace("bad", np.zeros(3))

    def test_mismatched_construction_rejected(self):
        with pytest.raises(AnalysisError):
            SweepRecord(name="x", sweep_label="v", sweep_values=np.zeros(4),
                        traces={"y": np.zeros(3)})

    def test_csv_roundtrip(self, record):
        text = record.to_csv()
        recovered = SweepRecord.from_csv(text)
        assert recovered.name == "id_vg"
        assert recovered.metadata["temperature"] == "1.0 K"
        assert np.allclose(recovered.sweep_values, record.sweep_values)
        assert np.allclose(recovered.trace("I_drain [A]"),
                           record.trace("I_drain [A]"))

    def test_csv_file_roundtrip(self, record, tmp_path):
        path = tmp_path / "sweep.csv"
        record.to_csv(path)
        recovered = SweepRecord.from_csv(path)
        assert np.allclose(recovered.sweep_values, record.sweep_values)

    def test_csv_stream_roundtrip(self, record):
        buffer = io.StringIO()
        record.to_csv(buffer)
        buffer.seek(0)
        recovered = SweepRecord.from_csv(buffer)
        assert np.allclose(recovered.trace("I_drain [A]"),
                           record.trace("I_drain [A]"))

    def test_empty_csv_rejected(self):
        with pytest.raises(AnalysisError):
            SweepRecord.from_csv("# name=empty\n")

