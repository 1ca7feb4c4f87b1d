"""The master stream: stacked blocks, the sweep's currents, lazy evaluation.

``MasterSession.stream`` solves the axis in blocks of 1, 2, 4, ... points,
each one stacked ``sweep``, so a stream equals the sweep bit for bit —
also on the reducible low-temperature chains where a one-point ``solve``
(started where the ground-state walk stops, not at the window centre) may
differ from the sweep by a few 1e-23 A.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.set_model import AnalyticSETModel
from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.errors import ValidationError
from repro.resilience import STATUS_OK, FailurePolicy
from repro.resilience.execution import STREAM_BLOCK_POINTS, stream_blocks

#: The regime of the stream contract: a large drain bias and gate axes up
#: to nine periods out, from reducible (20 mK) to thermal (2 K) chains.
CONTRACT_DRAIN = 0.2


@pytest.fixture
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


def streamed(session, axes, **options):
    return np.array([observed.current
                     for _, observed in session.stream(axes, **options)])


@pytest.fixture
def stacked_points(monkeypatch):
    """Points reaching ``AnalyticSETModel.chain_current``, per call."""
    counts = []
    original = AnalyticSETModel.chain_current

    def counted(self, drain_voltage, gate_voltage, *args, **kwargs):
        counts.append(len(gate_voltage))
        return original(self, drain_voltage, gate_voltage, *args, **kwargs)

    monkeypatch.setattr(AnalyticSETModel, "chain_current", counted)
    return counts


class TestBlocks:
    def test_blocks_double_up_to_the_cap_and_cover_the_axis(self):
        axes = SweepAxes(np.arange(129.0), 0.0)
        blocks = list(stream_blocks(axes))
        assert [len(indices) for indices, _ in blocks] \
            == [1, 2, 4, 8, 16, 32, STREAM_BLOCK_POINTS, 2]
        assert [index for indices, _ in blocks for index in indices] \
            == list(range(129))
        for indices, block in blocks:
            assert block.drain_voltage == axes.drain_voltage
            assert block.gate_voltages \
                == axes.gate_voltages[indices.start:indices.stop]

    def test_a_one_point_axis_is_one_block(self):
        (indices, block), = stream_blocks(SweepAxes([0.1], 0.0))
        assert indices == range(1) and block.gate_voltages == (0.1,)


class TestStreamEqualsSweep:
    @given(junction=st.floats(0.6e-18, 1.6e-18),
           gate=st.floats(1.2e-18, 3e-18),
           resistance=st.floats(5e5, 2e6),
           temperature=st.floats(0.02, 2.0),
           centre=st.floats(-9.0, 9.0))
    @settings(max_examples=25, deadline=None)
    def test_stream_is_the_sweep_bit_for_bit(self, junction, gate,
                                             resistance, temperature,
                                             centre):
        device = SETTransistor(junction_capacitance=junction,
                               gate_capacitance=gate,
                               junction_resistance=resistance)
        gates = (centre + np.linspace(-1.0, 1.0, 33)) * device.gate_period
        axes = SweepAxes(gates, CONTRACT_DRAIN)
        session = get_engine("master").bind(device, temperature=temperature)
        swept = session.sweep(axes).currents
        assert np.array_equal(streamed(session, axes), swept)
        records = []
        assert np.array_equal(streamed(session, axes, policy=FailurePolicy(),
                                       on_status=records.append), swept)
        assert [record.status for record in records] \
            == [STATUS_OK] * len(axes)

    def test_reducible_axis_streams_the_sweep(self):
        # 20 mK, eight to ten periods below zero: uphill rates underflow, so
        # the start state matters and a one-point solve may differ.
        device = SETTransistor()
        axes = SweepAxes(np.linspace(-10.0, -8.0, 97) * device.gate_period,
                         CONTRACT_DRAIN)
        session = get_engine("master").bind(device, temperature=0.02)
        assert np.array_equal(streamed(session, axes),
                              session.sweep(axes).currents)

    def test_on_status_without_policy_is_rejected(self, device):
        session = get_engine("master").bind(device, temperature=2.0)
        with pytest.raises(ValidationError):
            next(session.stream(SweepAxes([0.0], 5e-3),
                                on_status=lambda record: None))


class TestLaziness:
    @pytest.mark.parametrize("policy", [None, FailurePolicy()])
    def test_first_point_is_a_one_point_solve(self, device, stacked_points,
                                              policy):
        session = get_engine("master").bind(device, temperature=2.0)
        axes = SweepAxes(np.linspace(0.0, device.gate_period, 129), 5e-3)
        stream = session.stream(axes, policy=policy)
        next(stream)
        assert stacked_points == [1]

    @pytest.mark.parametrize("policy", [None, FailurePolicy()])
    @pytest.mark.parametrize("taken", [1, 2, 3, 4, 17, 63, 64, 65, 100, 129])
    def test_stopping_after_k_points_solves_fewer_than_2k(
            self, device, stacked_points, policy, taken):
        session = get_engine("master").bind(device, temperature=2.0)
        axes = SweepAxes(np.linspace(0.0, device.gate_period, 129), 5e-3)
        for count, _ in enumerate(session.stream(axes, policy=policy), 1):
            if count == taken:
                break
        assert sum(stacked_points) < 2 * taken
        # Exactly the blocks that hold the first ``taken`` points.
        assert sum(stacked_points) == sum(
            len(indices) for indices, _ in stream_blocks(axes)
            if indices.start < taken)
