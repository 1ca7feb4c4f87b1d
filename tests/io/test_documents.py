"""The canonical JSON form of spec hashes, cache artifacts and payloads."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import DesignSpec, DeviceAxis
from repro.design.tolerance import ComponentDeviation
from repro.io.documents import canonical_json, content_hash
from repro.scenarios import Budget, ScenarioSpec, SweepAxis

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



#: Each document class, the keys it requires, and the object Python builds
#: from those keys alone (every other field at its dataclass default).
REQUIRED_ONLY = [
    (Budget, {}, Budget()),
    (SweepAxis, {"source": "VG", "values": [0.1]},
     SweepAxis("VG", values=(0.1,))),
    (ScenarioSpec, {"name": "defaults"}, ScenarioSpec(name="defaults")),
    (DeviceAxis, {"parameter": "temperature", "values": [1.0]},
     DeviceAxis("temperature", values=(1.0,))),
    (DesignSpec,
     {"name": "defaults",
      "axes": [{"parameter": "temperature", "values": [1.0]}],
      "constraints": [{"type": "max_temperature"}]},
     DesignSpec(name="defaults",
                axes=(DeviceAxis("temperature", values=(1.0,)),),
                constraints=({"type": "max_temperature"},))),
    (ComponentDeviation, {}, ComponentDeviation()),
]


@pytest.mark.parametrize("document, payload, built", REQUIRED_ONLY,
                         ids=[entry[0].__name__ for entry in REQUIRED_ONLY])
def test_from_dict_leaves_the_defaults_to_the_dataclass(document, payload,
                                                         built):
    loaded = document.from_dict(payload)
    assert loaded == built
    assert content_hash(loaded.to_dict()) == content_hash(built.to_dict())
    if hasattr(built, "content_hash"):
        assert loaded.content_hash() == built.content_hash()
