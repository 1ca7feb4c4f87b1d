"""Component tolerances: deviations, corners, and the SHA-256 seed streams."""

import numpy as np
import pytest

from repro.design import ComponentDeviation, ToleranceModel
from repro.devices import SETTransistor
from repro.errors import ValidationError
from repro.io.results import derive_seed


def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


class TestComponentDeviation:
    def test_tolerance_bounds_are_symmetric_around_nominal(self):
        deviation = ComponentDeviation.from_tolerance(0.1)
        assert deviation.bounds(100.0) == (90.0, pytest.approx(110.0))
        assert deviation.corners(100.0) == (90.0, pytest.approx(110.0))

    def test_minmax_bounds_are_absolute(self):
        deviation = ComponentDeviation.from_min_max(1.0, 3.0)
        assert deviation.bounds(2.0) == (1.0, 3.0)

    def test_none_deviation_is_falsy_glue(self):
        deviation = ComponentDeviation.none()
        assert deviation.bounds(5.0) == (5.0, 5.0)
        assert deviation.corners(5.0) == ()
        assert deviation.sample(5.0, np.random.default_rng(0)) == 5.0

    @pytest.mark.parametrize("kwargs, match", [
        (dict(kind="gaussian"), "deviation kind"),
        (dict(kind="tolerance", tolerance=0.0), "relative tolerance"),
        (dict(kind="tolerance", tolerance=1.5), "relative tolerance"),
        (dict(kind="minmax", minimum=2.0, maximum=1.0), "maximum > minimum"),
        (dict(kind="tolerance", tolerance=0.1, distribution="cauchy"),
         "distribution"),
    ])
    def test_invalid_deviations_are_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            ComponentDeviation(**kwargs)

    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_samples_stay_inside_the_bounds(self, distribution):
        deviation = ComponentDeviation.from_tolerance(
            0.2, distribution=distribution)
        rng = np.random.default_rng(7)
        draws = [deviation.sample(1e-18, rng) for _ in range(200)]
        low, high = deviation.bounds(1e-18)
        assert all(low <= draw <= high for draw in draws)
        assert len(set(draws)) > 100   # actually random, not clipped flat

    def test_dict_round_trip(self):
        for deviation in (ComponentDeviation.from_tolerance(0.1, "normal"),
                          ComponentDeviation.from_min_max(1.0, 2.0),
                          ComponentDeviation.none()):
            assert ComponentDeviation.from_dict(deviation.to_dict()) == \
                deviation

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown deviation key"):
            ComponentDeviation.from_dict({"kind": "tolerance",
                                          "tolerance": 0.1, "sigma": 1.0})


class TestSeedStreams:
    def test_element_seed_values_are_pinned(self):
        # Frozen expected values: SHA-256 of "root:element:index", first
        # four bytes big-endian.  Any change here silently invalidates
        # every cached tolerance-MC result — hence the exact pin.
        assert [derive_seed(11, "junction_capacitance", i)
                for i in range(3)] == [698088888, 2913784054, 3114029091]
        assert [derive_seed(11, "gate_capacitance", i)
                for i in range(3)] == [604451560, 3708266821, 1854056977]
        assert derive_seed(0, "junction_resistance", 0) == 2320333318

    def test_point_seed_values_are_pinned(self):
        assert [derive_seed(1, "design-point", i) for i in range(3)] == \
            [1871769058, 2455947983, 2628273256]
        assert derive_seed(42, "design-point", 7) == 110351515

    def test_streams_are_keyed_not_ordered(self):
        # Seeds depend only on (root, element, index) — never on the order
        # anything is asked for.
        forward = [derive_seed(3, "gate_capacitance", i)
                   for i in range(8)]
        backward = [derive_seed(3, "gate_capacitance", i)
                    for i in reversed(range(8))]
        assert forward == list(reversed(backward))
        assert derive_seed(3, "gate_capacitance", 0) != \
            derive_seed(3, "junction_capacitance", 0)
        assert derive_seed(3, "gate_capacitance", 0) != \
            derive_seed(4, "gate_capacitance", 0)


class TestToleranceModel:
    def model(self):
        return ToleranceModel.from_dict({
            "junction_capacitance": {"kind": "tolerance", "tolerance": 0.2},
            "gate_capacitance": {"kind": "tolerance", "tolerance": 0.1,
                                 "distribution": "normal"},
        })

    def test_truthiness_tracks_actual_deviation(self):
        assert self.model()
        assert not ToleranceModel.from_dict({})
        assert not ToleranceModel.from_dict(
            {"gate_capacitance": {"kind": "none"}})

    def test_sampled_devices_stay_inside_every_band(self):
        model = self.model()
        for sample in range(50):
            deviated = model.sample_device(device(), 11, sample)
            assert 0.8e-18 <= deviated.junction_capacitance <= 1.2e-18
            assert 1.8e-18 <= deviated.gate_capacitance <= 2.2e-18
            assert deviated.junction_resistance == 1e6   # not toleranced

    def test_draws_are_independent_of_other_elements(self):
        # Regression (seeded tolerance-MC determinism): the gate draw of
        # sample i must not change when the junction tolerance is added or
        # removed — each element owns a disjoint seed stream.
        both = self.model()
        gate_only = ToleranceModel.from_dict({
            "gate_capacitance": {"kind": "tolerance", "tolerance": 0.1,
                                 "distribution": "normal"}})
        for sample in (0, 3, 17):
            assert both.sample_device(device(), 11, sample).gate_capacitance \
                == gate_only.sample_device(device(), 11,
                                           sample).gate_capacitance

    def test_draws_are_independent_of_call_order(self):
        model = self.model()
        shuffled = [model.sample_device(device(), 11, i).gate_capacitance
                    for i in (5, 0, 2)]
        ordered = {i: model.sample_device(device(), 11, i).gate_capacitance
                   for i in (0, 2, 5)}
        assert shuffled == [ordered[5], ordered[0], ordered[2]]

    def test_corner_devices_enumerate_the_cartesian_product(self):
        corners = self.model().corner_devices(device())
        assert len(corners) == 4
        assignments = {tuple(sorted(a.items())) for a, _ in corners}
        assert len(assignments) == 4
        for assignment, corner in corners:
            assert corner.junction_capacitance == \
                assignment["junction_capacitance"]

    def test_deviation_on_an_unset_optional_is_rejected(self):
        model = ToleranceModel.from_dict(
            {"drain_capacitance": {"kind": "tolerance", "tolerance": 0.1}})
        with pytest.raises(ValidationError, match="unset"):
            model.sample_device(device(), 1, 0)

    def test_dict_round_trip(self):
        model = self.model()
        assert ToleranceModel.from_dict(model.to_dict()).to_dict() == \
            model.to_dict()
