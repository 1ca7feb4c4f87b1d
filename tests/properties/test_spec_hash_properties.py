"""Property-based tests of the canonical content hashes of spec documents.

Both :class:`~repro.scenarios.spec.ScenarioSpec` and
:class:`~repro.design.spec.DesignSpec` key the result cache by the SHA-256
of their canonical JSON.  Three properties must hold for that to be a sound
cache identity:

* **permutation invariance** — the hash ignores dict key insertion order;
* **round-trip stability** — dict, JSON, and TOML round trips reproduce
  the identical hash;
* **perturbation sensitivity** — changing any single field changes the
  hash (a typo'd document must never collide with the author's intent).

Both kinds load and hash through one base,
:class:`~repro.io.documents.SpecDocument`, so a dict, JSON text, TOML text
and a file path give one hash for either kind.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import DesignSpec
from repro.design.spec import DEVICE_PARAMETERS
from repro.io.documents import SpecDocument, canonical_json, content_hash
from repro.scenarios import ScenarioSpec

names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
small_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                         allow_infinity=False)
positive_floats = st.floats(min_value=1e-20, max_value=1e6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def to_toml(payload: dict) -> str:
    """Render a spec payload dict as TOML (inline tables, one key per line).

    Covers exactly the value shapes ``to_dict`` emits: strings, booleans,
    ints, floats, lists, and string-keyed dicts.
    """
    def render(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(render(v) for v in value) + "]"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{k} = {render(v)}"
                                   for k, v in value.items()) + "}"
        raise TypeError(f"unexpected payload value: {value!r}")

    return "\n".join(f"{key} = {render(value)}"
                     for key, value in payload.items())


# --------------------------------------------------------------- strategies

@st.composite
def sweep_axis_payloads(draw):
    """Random valid ScenarioSpec sweep-axis declarations (both forms)."""
    if draw(st.booleans()):
        return {"source": draw(names),
                "values": draw(st.lists(small_floats, min_size=1,
                                        max_size=4))}
    return {"source": draw(names), "start": draw(small_floats),
            "stop": draw(small_floats),
            "points": draw(st.integers(min_value=2, max_value=41)),
            "endpoint": draw(st.booleans())}


@st.composite
def scenario_specs(draw):
    """Random valid :class:`ScenarioSpec` instances."""
    return ScenarioSpec.from_dict({
        "name": draw(names),
        "engine": draw(st.sampled_from(("auto", "analytic", "master",
                                        "montecarlo"))),
        "temperature": draw(positive_floats),
        "device": draw(st.dictionaries(names, positive_floats, max_size=3)),
        "sweeps": draw(st.lists(sweep_axis_payloads(), max_size=2)),
        "observables": draw(st.lists(names, max_size=3, unique=True)),
        "seed": draw(seeds),
        "budget": {"max_events": draw(st.integers(1, 10**6)),
                   "warmup_events": draw(st.integers(0, 10**4)),
                   "replicas": draw(st.integers(0, 8)),
                   "workers": draw(st.integers(1, 8))},
        "params": draw(st.dictionaries(
            names, st.one_of(small_floats, st.integers(-100, 100), names),
            max_size=3)),
    })


CONSTRAINT_POOL = ("gain", "on_off_ratio", "max_temperature", "on_current",
                   "modulation_depth")


@st.composite
def design_specs(draw):
    """Random valid :class:`DesignSpec` instances."""
    parameters = draw(st.lists(st.sampled_from(DEVICE_PARAMETERS[:3]),
                               min_size=1, max_size=2, unique=True))
    axes = []
    for parameter in parameters:
        if draw(st.booleans()):
            axes.append({"parameter": parameter,
                         "values": draw(st.lists(positive_floats,
                                                 min_size=1, max_size=3))})
        else:
            axes.append({"parameter": parameter,
                         "start": draw(positive_floats),
                         "stop": draw(positive_floats),
                         "points": draw(st.integers(2, 17)),
                         "spacing": "linear"})
    types = draw(st.lists(st.sampled_from(CONSTRAINT_POOL), min_size=1,
                          max_size=3, unique=True))
    constraints = [{"type": t, "threshold": draw(positive_floats)}
                   for t in types]
    tolerances = draw(st.dictionaries(
        st.sampled_from(DEVICE_PARAMETERS[:3]),
        st.fixed_dictionaries({
            "kind": st.just("tolerance"),
            "tolerance": st.floats(min_value=0.01, max_value=0.9),
            "distribution": st.sampled_from(("uniform", "normal"))}),
        max_size=2))
    return DesignSpec.from_dict({
        "name": draw(names),
        "engine": draw(st.sampled_from(("auto", "analytic", "master"))),
        "axes": axes,
        "constraints": constraints,
        "temperature": draw(positive_floats),
        "drain_voltage": draw(positive_floats),
        "seed": draw(seeds),
        "chunk_size": draw(st.integers(1, 64)),
        "tolerances": tolerances,
        "tolerance_samples": draw(st.integers(1, 64)),
    })


# --------------------------------------------------------------- properties

class TestPermutationInvariance:
    @given(spec=scenario_specs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scenario_hash_ignores_key_order(self, spec, data):
        items = list(spec.to_dict().items())
        shuffled = dict(data.draw(st.permutations(items)))
        assert ScenarioSpec.from_dict(shuffled).content_hash() == \
            spec.content_hash()

    @given(spec=design_specs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_design_hash_ignores_key_order(self, spec, data):
        items = list(spec.to_dict().items())
        shuffled = dict(data.draw(st.permutations(items)))
        assert DesignSpec.from_dict(shuffled).content_hash() == \
            spec.content_hash()


class TestRoundTripStability:
    @given(spec=scenario_specs())
    @settings(max_examples=40, deadline=None)
    def test_scenario_dict_json_toml_round_trips(self, spec):
        expected = spec.content_hash()
        assert ScenarioSpec.from_dict(spec.to_dict()).content_hash() == \
            expected
        assert ScenarioSpec.from_json(
            json.dumps(spec.to_dict())).content_hash() == expected
        assert ScenarioSpec.from_toml(
            to_toml(spec.to_dict())).content_hash() == expected

    @given(spec=design_specs())
    @settings(max_examples=40, deadline=None)
    def test_design_dict_json_toml_round_trips(self, spec):
        expected = spec.content_hash()
        assert DesignSpec.from_dict(spec.to_dict()).content_hash() == \
            expected
        assert DesignSpec.from_json(
            json.dumps(spec.to_dict())).content_hash() == expected
        assert DesignSpec.from_toml(
            to_toml(spec.to_dict())).content_hash() == expected

    @given(spec=design_specs())
    @settings(max_examples=40, deadline=None)
    def test_canonical_json_is_deterministic(self, spec):
        twin = DesignSpec.from_dict(spec.to_dict())
        assert twin.canonical_json() == spec.canonical_json()


class TestPerturbationSensitivity:
    @given(spec=scenario_specs())
    @settings(max_examples=40, deadline=None)
    def test_every_scenario_field_feeds_the_hash(self, spec):
        base = spec.content_hash()
        perturbed = [
            spec.to_dict() | {"name": spec.name + "x"},
            spec.to_dict() | {"temperature": spec.temperature + 1.0},
            spec.to_dict() | {"seed": spec.seed + 1},
            spec.to_dict() | {"engine": "ensemble"},
            spec.to_dict() | {"device": dict(spec.device,
                                             zz_perturbation_probe=0.125)},
            spec.to_dict() | {"observables": list(spec.observables)
                              + ["zz_perturbation_probe"]},
            spec.to_dict() | {"budget": dict(
                spec.budget.to_dict(),
                max_events=spec.budget.max_events + 1)},
            spec.to_dict() | {"params": dict(spec.params,
                                             zz_perturbation_probe=0.125)},
        ]
        hashes = [ScenarioSpec.from_dict(p).content_hash()
                  for p in perturbed]
        assert base not in hashes
        assert len(set(hashes)) == len(hashes)

    @given(spec=design_specs())
    @settings(max_examples=40, deadline=None)
    def test_every_design_field_feeds_the_hash(self, spec):
        base = spec.content_hash()
        # The strategy only sweeps device parameters, so a temperature axis
        # is always new; likewise pick a constraint type not yet used.
        extra_axis = {"parameter": "temperature", "values": [1.0, 2.0]}
        used = {c["type"] for c in spec.constraints}
        extra_type = next(t for t in CONSTRAINT_POOL if t not in used)
        extra_constraint = {"type": extra_type, "threshold": 123.0}
        payload = spec.to_dict()
        perturbed = [
            payload | {"name": spec.name + "x"},
            payload | {"temperature": spec.temperature + 1.0},
            payload | {"drain_voltage": spec.drain_voltage + 1.0},
            payload | {"seed": spec.seed + 1},
            payload | {"chunk_size": spec.chunk_size + 1},
            payload | {"tolerance_samples": spec.tolerance_samples + 1},
            payload | {"on_gate_fraction": spec.on_gate_fraction + 0.01},
            payload | {"off_gate_fraction": spec.off_gate_fraction + 0.01},
            payload | {"axes": payload["axes"] + [extra_axis]},
            payload | {"constraints": payload["constraints"]
                       + [extra_constraint]},
            payload | {"device": dict(spec.device,
                                      background_charge=1e-20)},
            payload | {"budget": dict(spec.budget.to_dict(),
                                      replicas=spec.budget.replicas + 1)},
        ]
        hashes = [DesignSpec.from_dict(p).content_hash() for p in perturbed]
        assert base not in hashes
        assert len(set(hashes)) == len(hashes)


class TestSharedDocumentBase:
    """Both spec kinds load and hash through one :class:`SpecDocument`."""

    @given(spec=st.one_of(scenario_specs(), design_specs()))
    @settings(max_examples=30, deadline=None)
    def test_dict_json_toml_and_file_give_one_hash(self, spec):
        kind = type(spec)
        assert isinstance(spec, SpecDocument)
        payload = spec.to_dict()
        json_text = json.dumps(payload)
        toml_text = to_toml(payload)
        expected = spec.content_hash()
        assert expected == content_hash(canonical_json(payload))
        with tempfile.TemporaryDirectory() as root:
            json_path = Path(root) / "spec.json"
            json_path.write_text(json_text)
            toml_path = Path(root) / "spec.toml"
            toml_path.write_text(f"[{kind.kind}]\n{toml_text}")
            loaded = [kind.from_dict(payload), kind.from_json(json_text),
                      kind.from_toml(toml_text), kind.load(json_path),
                      kind.load(toml_path), kind.from_json(str(json_path))]
            assert [doc.content_hash() for doc in loaded] == \
                [expected] * len(loaded)
