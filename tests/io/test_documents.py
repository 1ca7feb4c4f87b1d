"""The canonical JSON form of spec hashes, cache artifacts and payloads."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.documents import canonical_json

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16)


def reference_dump(value):
    """The sorted, compact ``json.dumps`` call canonical JSON stands for."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@given(value=json_values)
@settings(max_examples=200, deadline=None)
def test_canonical_json_is_the_sorted_compact_dump(value):
    assert canonical_json(value) == reference_dump(value)


def test_non_finite_floats_keep_their_bare_tokens():
    value = {"b": float("nan"), "a": [1.0, float("inf"), -float("inf")]}
    assert canonical_json(value) == reference_dump(value)
    assert canonical_json(value) == '{"a":[1.0,Infinity,-Infinity],"b":NaN}'

