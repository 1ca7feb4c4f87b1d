"""``EventTable.delta_f`` over stacks with per-row source voltages.

Each output row must equal the single-vector call at that row's potentials
and voltages, bit for bit, whatever the stack's shape: the Monte-Carlo
sweep plan evaluates many points' rows in one call and adopts them only
because they equal the rows a point would evaluate on its own.
"""

import numpy as np
import pytest

from repro.core.energy import EnergyModel

from ..conftest import build_double_dot_circuit, build_set_circuit


@pytest.mark.parametrize("build", [build_set_circuit,
                                   build_double_dot_circuit])
def test_per_row_voltages_equal_single_vector_calls(build):
    model = EnergyModel(build())
    table = model.table
    system = model.system
    rng = np.random.default_rng(41)
    rows = 23
    potentials = rng.normal(scale=0.05, size=(rows, model.island_count))
    voltages = rng.normal(scale=0.05, size=(rows, len(system.source_names)))
    stacked = table.delta_f(potentials, voltages)
    assert stacked.shape == (rows, table.size)
    for row in range(rows):
        single = table.delta_f(potentials[row], voltages[row])
        assert stacked[row].tobytes() == single.tobytes()


def test_a_short_stack_after_a_tall_one_matches_single_calls():
    # Stacks of every height share one set of gather indices, sized for
    # the tallest stack seen; a shorter stack reads their prefix.
    model = EnergyModel(build_double_dot_circuit(bias_voltage=0.1))
    table = model.table
    rng = np.random.default_rng(43)
    sources = len(model.system.source_names)
    for rows in (40, 3, 17, 1):
        potentials = rng.normal(scale=0.05, size=(rows, model.island_count))
        voltages = rng.normal(scale=0.05, size=(rows, sources))
        shared = voltages[0]
        stacked = table.delta_f(potentials, voltages)
        common = table.delta_f(potentials, shared)
        for row in range(rows):
            assert stacked[row].tobytes() == table.delta_f(
                potentials[row], voltages[row]).tobytes()
            assert common[row].tobytes() == table.delta_f(
                potentials[row], shared).tobytes()
