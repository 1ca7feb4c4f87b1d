"""derive_seed reproduces the three historical seed token forms literally.

The expected values were recorded from the separate per-layer seed
functions this one replaced: checkpoint chunks hashed ``"{root}:{start}"``,
design-scan points ``"{root}:design-point:{index}"`` and tolerance draws
``"{root}:{element}:{sample}"``.  Any change here re-seeds every stochastic
chunk, scan point and tolerance sample, and invalidates cached results.
"""

import pytest

from repro.io.results import derive_seed


@pytest.mark.parametrize("tokens, expected", [
    ((0, 0), 2893166218),
    ((123, 0), 3918743174),
    ((123, 64), 2373272897),
    ((7, 129), 1046048438),
    ((2 ** 31, 5), 1356215345),
])
def test_checkpoint_chunk_form(tokens, expected):
    assert derive_seed(*tokens) == expected


@pytest.mark.parametrize("root, index, expected", [
    (0, 0, 4010222244),
    (1, 2, 2628273256),
    (42, 7, 110351515),
    (99, 10000, 689673066),
    (7, -1, 1298751934),
])
def test_design_point_form(root, index, expected):
    assert derive_seed(root, "design-point", index) == expected


@pytest.mark.parametrize("root, element, sample, expected", [
    (0, "junction_resistance", 0, 2320333318),
    (11, "gate_capacitance", 3, 507245606),
    (3, "junction_capacitance", 1000, 2502400651),
    (7, "temperature", 12, 2836141863),
])
def test_tolerance_element_form(root, element, sample, expected):
    assert derive_seed(root, element, sample) == expected

