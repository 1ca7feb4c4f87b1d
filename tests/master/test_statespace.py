"""Tests for charge-state enumeration."""

import numpy as np
import pytest

from repro.core import EnergyModel
from repro.constants import E_CHARGE
from repro.errors import StateSpaceError
from repro.master import auto_state_space, build_state_space

from ..conftest import build_set_circuit


class TestBuildStateSpace:
    def test_single_island_window(self):
        space = build_state_space([(-2, 2)])
        assert space.size == 5
        assert (0,) in space
        assert (3,) not in space

    def test_two_island_window(self):
        space = build_state_space([(-1, 1), (0, 2)])
        assert space.size == 9
        assert space.island_count == 2
        assert (1, 2) in space

    def test_index_lookup_is_consistent(self):
        space = build_state_space([(-2, 2), (-1, 1)])
        for position, state in enumerate(space.states):
            assert space.index_of(state) == position

    def test_as_array_shape(self):
        space = build_state_space([(-1, 1), (-1, 1)])
        array = space.as_array()
        assert array.shape == (9, 2)
        assert array.dtype == np.int64

    def test_invalid_bounds_rejected(self):
        with pytest.raises(StateSpaceError):
            build_state_space([(2, -2)])
        with pytest.raises(StateSpaceError):
            build_state_space([])

    def test_oversized_window_rejected(self):
        with pytest.raises(StateSpaceError):
            build_state_space([(-300, 300)] * 3)


class TestAutoStateSpace:
    def test_window_is_centred_on_ground_state(self):
        model = EnergyModel(build_set_circuit())
        space = auto_state_space(model, extra_electrons=2)
        assert space.size == 5
        assert (0,) in space
        assert (2,) in space
        assert (-2,) in space

    def test_window_follows_gate_voltage(self):
        period = E_CHARGE / 2e-18
        model = EnergyModel(build_set_circuit(gate_voltage=3.1 * period))
        space = auto_state_space(model, extra_electrons=2)
        assert (3,) in space
        assert (5,) in space

    def test_double_dot_window(self, double_dot_circuit):
        model = EnergyModel(double_dot_circuit)
        space = auto_state_space(model, extra_electrons=1)
        assert space.island_count == 2
        assert space.size == 9

    def test_requires_positive_width(self):
        model = EnergyModel(build_set_circuit())
        with pytest.raises(StateSpaceError):
            auto_state_space(model, extra_electrons=0)
