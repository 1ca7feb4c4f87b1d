"""The sweep-level current estimator against the per-point oracle.

A Monte-Carlo sweep keeps every point's phase boundaries in one
``(points, phases + 1, replicas)`` record and runs the block-average or
replica-spread estimator once, vectorised over the points.  Hypothesis
draws random records — zero-duration (empty) blocks and replicas, rows with
no usable block at all, one-replica ensembles — and every field of every
point must equal the per-point oracle's exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montecarlo.simulator import _PointRecords

from .estimator_oracle import block_estimate, replica_estimate

#: Junction columns of the drawn records; the estimate uses ``COLUMN``.
JUNCTIONS = 2
COLUMN = 1


def random_record(rng, shape, empty, empty_points):
    """Phase boundaries of ``shape = (points, phases, replicas)`` increments.

    Durations and tallies have varied mantissas, so any change in summation
    order shows; ``empty`` marks zero-duration blocks or replicas, and every
    point in ``empty_points`` has no usable block at all.
    """
    steps = rng.lognormal(-20.0, 3.0, shape)
    steps[empty] = 0.0
    steps[list(empty_points)] = 0.0
    moved = rng.integers(-50, 51, shape + (JUNCTIONS,)).astype(float)
    if rng.random() < 0.5:
        moved = rng.normal(0.0, 30.0, moved.shape)
    events = rng.integers(0, 500, shape)

    def boundaries(increments):
        # Sweep points and stationary estimates start their clocks at zero.
        start = np.zeros((shape[0], 1) + increments.shape[2:],
                         dtype=increments.dtype)
        return np.cumsum(np.concatenate((start, increments), axis=1), axis=1)

    return boundaries(steps), boundaries(events), boundaries(moved)


@st.composite
def records(draw, replicas, phases):
    """Random phase records of 1-5 points, empties chosen by hypothesis."""
    points = draw(st.integers(min_value=1, max_value=5))
    shape = (points, phases, replicas)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = points * phases * replicas
    empty = np.array(draw(st.lists(st.booleans(), min_size=size,
                                   max_size=size))).reshape(shape)
    return random_record(rng, shape, empty,
                         draw(st.sets(st.integers(0, points - 1))))


def sweep_estimates(times, counts, transfers, replicas):
    points, rows = times.shape[:2]
    sweep = _PointRecords(points, 0, 0, rows - 2, replicas, COLUMN)
    for point in range(points):
        sweep.store(point, SimpleNamespace(times=times[point],
                                           counts=counts[point],
                                           transfers=transfers[point]))
    return sweep.estimates()


def block_oracle(times, counts, transfers):
    return [block_estimate(times[point], counts[point], transfers[point],
                           COLUMN) for point in range(len(times))]


def replica_oracle(times, counts, transfers):
    return [replica_estimate(times[point, 2] - times[point, 1],
                             transfers[point, 2] - transfers[point, 1],
                             counts[point, 2] - counts[point, 1], COLUMN)
            for point in range(len(times))]


def assert_matches(estimates, oracle):
    for field, values in (("mean", estimates.means),
                          ("stderr", estimates.stderrs),
                          ("blocks", estimates.blocks),
                          ("duration", estimates.durations),
                          ("events", estimates.events)):
        expected = np.array([getattr(point, field) for point in oracle])
        assert np.array_equal(values, expected), field


@settings(max_examples=100, deadline=None)
@given(data=st.data(), blocks=st.integers(min_value=2, max_value=12))
def test_block_average_matches_the_per_point_oracle(data, blocks):
    record = data.draw(records(1, blocks + 1))
    assert_matches(sweep_estimates(*record, None), block_oracle(*record))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), replicas=st.integers(min_value=1, max_value=20))
def test_replica_spread_matches_the_per_point_oracle(data, replicas):
    record = data.draw(records(replicas, 2))
    assert_matches(sweep_estimates(*record, replicas),
                   replica_oracle(*record))


@pytest.mark.parametrize("replicas", [None, 1, 16])
def test_sweep_sized_batches_match_the_per_point_oracle(replicas):
    # 129 points with the sweep's own shapes: ten blocks, or a 16-replica
    # window; a few empty blocks and two points without a usable block.
    rng = np.random.default_rng(2024)
    shape = (129, 11, 1) if replicas is None else (129, 2, replicas)
    record = random_record(rng, shape, rng.random(shape) < 0.05, {7, 90})
    oracle = block_oracle if replicas is None else replica_oracle
    assert_matches(sweep_estimates(*record, replicas), oracle(*record))
