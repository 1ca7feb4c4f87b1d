"""DesignSpec/DeviceAxis validation, round-trips, and hashing."""

import json

import numpy as np
import pytest

from repro.design import (
    DEVICE_PARAMETERS,
    SCAN_PARAMETERS,
    DesignSpec,
    DeviceAxis,
)
from repro.errors import ValidationError

from .conftest import GAIN, MAX_T, ON_OFF, make_spec


class TestDeviceAxis:
    def test_linear_grid_matches_linspace(self):
        axis = DeviceAxis("temperature", start=0.5, stop=4.0, points=8)
        assert np.allclose(axis.grid(), np.linspace(0.5, 4.0, 8))
        assert len(axis) == 8

    def test_log_grid_matches_geomspace(self):
        axis = DeviceAxis("gate_capacitance", start=1e-19, stop=1e-17,
                          points=5, spacing="log")
        assert np.allclose(axis.grid(), np.geomspace(1e-19, 1e-17, 5))

    def test_explicit_values_override_the_grid_fields(self):
        axis = DeviceAxis("temperature", values=(4.0, 1.0, 0.5))
        assert axis.grid().tolist() == [4.0, 1.0, 0.5]
        assert len(axis) == 3

    @pytest.mark.parametrize("payload, match", [
        (dict(parameter="not_a_parameter", points=3, stop=1.0),
         "unknown scan parameter"),
        (dict(parameter="temperature", points=3, stop=1.0, spacing="cubic"),
         "spacing"),
        (dict(parameter="temperature", values=()), "empty values"),
        (dict(parameter="temperature", points=1, stop=1.0), "points >= 2"),
        (dict(parameter="temperature", start=-1.0, stop=1.0, points=3,
              spacing="log"), "same-sign"),
    ])
    def test_invalid_axes_are_rejected(self, payload, match):
        with pytest.raises(ValidationError, match=match):
            DeviceAxis(**payload)

    def test_dict_round_trip_both_forms(self):
        grid = DeviceAxis("junction_resistance", start=1e5, stop=1e8,
                          points=7, spacing="log")
        explicit = DeviceAxis("temperature", values=(1.0, 2.0))
        for axis in (grid, explicit):
            assert DeviceAxis.from_dict(axis.to_dict()) == axis

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown"):
            DeviceAxis.from_dict({"parameter": "temperature",
                                  "values": [1.0], "typo": 1})

    def test_every_device_parameter_is_sweepable(self):
        for parameter in SCAN_PARAMETERS:
            assert len(DeviceAxis(parameter, values=(1e-18,))) == 1
        assert set(DEVICE_PARAMETERS) < set(SCAN_PARAMETERS)


class TestDesignSpecValidation:
    def test_minimal_spec_builds_with_defaults(self):
        spec = make_spec()
        assert spec.engine == "analytic"
        assert spec.temperature == 1.0
        assert spec.shape == (9,)
        assert len(spec) == 9

    @pytest.mark.parametrize("overrides, match", [
        (dict(engine="imaginary"), "unknown engine"),
        (dict(axes=[]), "at least one axis"),
        (dict(axes=[{"parameter": "temperature", "values": [1.0]},
                    {"parameter": "temperature", "values": [2.0]}]),
         "duplicate design axes"),
        (dict(chunk_size=0), "chunk_size"),
        (dict(tolerance_samples=0), "tolerance_samples"),
        (dict(constraints=[]), "at least one constraint"),
        (dict(tolerances={"temperature": {"kind": "tolerance",
                                          "tolerance": 0.1}}),
         "tolerance on unknown device parameter"),
        (dict(constraints=[{"type": "not_a_constraint"}]),
         "unknown constraint type"),
        (dict(tolerances={"gate_capacitance": {"kind": "bogus"}}),
         "deviation kind"),
    ])
    def test_invalid_specs_fail_eagerly(self, overrides, match):
        with pytest.raises(ValidationError, match=match):
            make_spec(**overrides)

    def test_from_dict_requires_a_name_and_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="needs a 'name'"):
            DesignSpec.from_dict({"axes": []})
        with pytest.raises(ValidationError, match="unknown"):
            make_spec(surprise=1)


class TestDesignSpecGeometry:
    def test_point_parameters_walk_the_grid_row_major(self):
        spec = make_spec(axes=[
            {"parameter": "temperature", "values": [1.0, 2.0]},
            {"parameter": "drain_voltage", "values": [1e-3, 2e-3, 3e-3]},
        ])
        assert spec.shape == (2, 3)
        # First axis varies slowest: index 4 = (row 1, column 1).
        assert spec.point_parameters(4) == {"temperature": 2.0,
                                            "drain_voltage": 2e-3}
        assert spec.point_parameters(0) == {"temperature": 1.0,
                                            "drain_voltage": 1e-3}
        with pytest.raises(ValidationError, match="outside"):
            spec.point_parameters(6)

    def test_axis_values_and_base_device(self):
        spec = make_spec(device={"junction_capacitance": 2e-18})
        values = spec.axis_values()
        assert list(values) == ["gate_capacitance"]
        assert spec.base_device().junction_capacitance == 2e-18


class TestDesignSpecDocuments:
    def test_dict_round_trip_preserves_the_hash(self):
        spec = make_spec(tolerances={"gate_capacitance":
                                     {"kind": "tolerance",
                                      "tolerance": 0.1}})
        again = DesignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_json_round_trip(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert DesignSpec.load(path).content_hash() == spec.content_hash()

    def test_toml_document_with_design_table(self, tmp_path):
        path = tmp_path / "scan.toml"
        path.write_text("""
[design]
name = "toml_scan"
engine = "analytic"
chunk_size = 3

[[design.axes]]
parameter = "gate_capacitance"
start = 5e-19
stop = 5e-18
points = 9
spacing = "log"

[[design.constraints]]
type = "gain"
threshold = 1.0

[[design.constraints]]
type = "on_off_ratio"
threshold = 10.0

[[design.constraints]]
type = "max_temperature"
""")
        spec = DesignSpec.load(path)
        assert spec == make_spec(name="toml_scan")

    def test_invalid_documents_fail_cleanly(self):
        with pytest.raises(ValidationError, match="invalid design JSON"):
            DesignSpec.from_json("{nope")
        with pytest.raises(ValidationError, match="invalid design TOML"):
            DesignSpec.from_toml("= broken =")

    def test_unreadable_file_error_names_the_design_document(self, tmp_path):
        # A directory is a path that exists but cannot be read as text.
        with pytest.raises(ValidationError,
                           match="cannot read design spec file"):
            DesignSpec.from_json(tmp_path)


class TestDesignSpecHashing:
    def test_canonical_json_ignores_key_insertion_order(self):
        forward = make_spec()
        backward = DesignSpec.from_dict(
            dict(reversed(list(make_spec().to_dict().items()))))
        assert forward.canonical_json() == backward.canonical_json()

    def test_any_field_change_changes_the_hash(self):
        base = make_spec()
        variants = [
            make_spec(name="other"),
            make_spec(temperature=2.0),
            make_spec(seed=99),
            make_spec(chunk_size=4),
            make_spec(constraints=[GAIN, ON_OFF]),
            make_spec(constraints=[GAIN, ON_OFF,
                                   dict(MAX_T, threshold=2.0)]),
            base.replace(drain_voltage=1e-3),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)
