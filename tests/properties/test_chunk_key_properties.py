"""Property-based tests of the chunk cache keys of both chunk planners.

:class:`~repro.design.scan.DeviceScan` and
:class:`~repro.resilience.checkpoint.CheckpointedSweep` hash their run's
constant context once per plan and key each chunk by that hash, its start
and its point count.  For that to be a sound checkpoint identity:

* changing any one field of the run context changes **every** chunk key,
  so no chunk of the changed run can resume from the old run's artifacts;
* no two chunks of one run share a key;
* the keys are a pure function of the context: a fresh interpreter derives
  the same keys as the current process.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.design import DesignSpec, DeviceScan
from repro.devices import SETTransistor
from repro.engines import SweepAxes
from repro.io.results import ResultCache
from repro.resilience import CheckpointedSweep, FailurePolicy

#: Keys only: the cache root is never touched.
CACHE = ResultCache("never-written", code_version="chunk-key-property")

#: A small nudge that changes any float field.
NUDGES = st.floats(min_value=1e-6, max_value=0.5)


def next_policy(policy):
    """A policy different from ``policy`` (``None`` included)."""
    if policy is None:
        return FailurePolicy()
    return FailurePolicy(max_retries=policy.max_retries + 1)


def scan_context(points, chunk_size, policy):
    """A DeviceScan context: the spec document plus the policy."""
    return {"spec": {
        "name": "keyed_scan",
        "engine": "analytic",
        "device": {"junction_capacitance": 1e-18,
                   "junction_resistance": 1e6},
        "axes": [{"parameter": "gate_capacitance", "start": 5e-19,
                  "stop": 5e-18, "points": points, "spacing": "log"}],
        "constraints": [{"type": "gain", "threshold": 1.0}],
        "temperature": 1.0,
        "drain_voltage": 2e-3,
        "on_gate_fraction": 0.5,
        "seed": 7,
        "chunk_size": chunk_size,
    }, "policy": policy}


def change_scan(context, field, nudge):
    """``context`` with exactly one field changed."""
    spec = json.loads(json.dumps(context["spec"]))
    policy = context["policy"]
    if field == "axis value":
        spec["axes"][0]["stop"] *= 1 + nudge
    elif field in ("junction_capacitance", "junction_resistance"):
        spec["device"][field] *= 1 + nudge
    elif field in ("temperature", "drain_voltage", "on_gate_fraction"):
        spec[field] *= 1 + nudge
    elif field == "seed":
        spec["seed"] += 1
    elif field == "chunk_size":
        spec["chunk_size"] += 1
    elif field == "engine":
        spec["engine"] = "master"
    elif field == "policy":
        policy = next_policy(policy)
    return {"spec": spec, "policy": policy}


def scan_keys(context):
    scan = DeviceScan(DesignSpec.from_dict(context["spec"]), cache=CACHE,
                      policy=context["policy"])
    return [chunk.key for chunk in scan.chunk_plan()]


SCAN_FIELDS = ("axis value", "junction_capacitance", "junction_resistance",
               "temperature", "seed", "policy", "engine", "chunk_size",
               "on_gate_fraction", "drain_voltage")


def sweep_context(points, chunk_size, policy):
    """A CheckpointedSweep context, as keyword arguments."""
    device = SETTransistor(junction_capacitance=1e-18,
                           gate_capacitance=2e-18, junction_resistance=1e6)
    return {"engine": "analytic", "device": device,
            "gates": list(np.linspace(0.0, 0.16, points)),
            "drain_voltage": 2e-3, "temperature": 1.0, "seed": 11,
            "chunk_size": chunk_size, "policy": policy}


def change_sweep(context, field, nudge):
    """``context`` with exactly one field changed."""
    context = dict(context)
    if field in ("junction_capacitance", "gate_capacitance",
                 "junction_resistance"):
        device = context["device"]
        context["device"] = dataclasses.replace(
            device, **{field: getattr(device, field) * (1 + nudge)})
    elif field == "gate voltage":
        gates = list(context["gates"])
        gates[len(gates) // 2] += nudge * 1e-2
        context["gates"] = gates
    elif field in ("temperature", "drain_voltage"):
        context[field] *= 1 + nudge
    elif field == "seed":
        context["seed"] += 1
    elif field == "chunk_size":
        context["chunk_size"] += 1
    elif field == "engine":
        context["engine"] = "master"
    elif field == "policy":
        context["policy"] = next_policy(context["policy"])
    return context


def sweep_keys(context):
    context = dict(context)
    axes = SweepAxes(context.pop("gates"), context.pop("drain_voltage"))
    sweep = CheckpointedSweep(context.pop("engine"), context.pop("device"),
                              axes, cache=CACHE, **context)
    return [chunk.key for chunk in sweep.chunk_plan()]


SWEEP_FIELDS = ("gate voltage", "junction_capacitance", "gate_capacitance",
                "junction_resistance", "temperature", "seed", "policy",
                "engine", "chunk_size", "drain_voltage")

POLICIES = st.sampled_from([None, FailurePolicy()])


@given(points=st.integers(2, 40), chunk_size=st.integers(1, 8),
       policy=POLICIES, field=st.sampled_from(SCAN_FIELDS), nudge=NUDGES)
@settings(max_examples=60, deadline=None)
def test_scan_field_change_changes_every_chunk_key(points, chunk_size,
                                                    policy, field, nudge):
    context = scan_context(points, chunk_size, policy)
    keys = scan_keys(context)
    assert len(set(keys)) == len(keys)
    changed = scan_keys(change_scan(context, field, nudge))
    assert len(set(changed)) == len(changed)
    assert not set(keys) & set(changed), field


@given(points=st.integers(2, 40), chunk_size=st.integers(1, 8),
       policy=POLICIES, field=st.sampled_from(SWEEP_FIELDS), nudge=NUDGES)
@settings(max_examples=60, deadline=None)
def test_sweep_field_change_changes_every_chunk_key(points, chunk_size,
                                                     policy, field, nudge):
    context = sweep_context(points, chunk_size, policy)
    keys = sweep_keys(context)
    assert len(set(keys)) == len(keys)
    changed = sweep_keys(change_sweep(context, field, nudge))
    assert len(set(changed)) == len(changed)
    assert not set(keys) & set(changed), field


#: Prints the keys of both planners' reference contexts as one JSON list.
_KEY_PROBE = """
import json
from repro.resilience import FailurePolicy
from tests.properties.test_chunk_key_properties import (
    scan_context, scan_keys, sweep_context, sweep_keys)
print(json.dumps([scan_keys(scan_context(13, 4, FailurePolicy())),
                  sweep_keys(sweep_context(13, 4, None))]))
"""


def test_a_fresh_interpreter_derives_the_same_keys():
    root = Path(repro.__file__).resolve().parents[2]
    completed = subprocess.run(
        [sys.executable, "-c", _KEY_PROBE], cwd=root,
        env={"PYTHONPATH": f"{root / 'src'}:{root}",
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True)
    expected = [scan_keys(scan_context(13, 4, FailurePolicy())),
                sweep_keys(sweep_context(13, 4, None))]
    assert json.loads(completed.stdout) == expected
