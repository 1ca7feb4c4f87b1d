"""Pinned digests of cache-resumed design scans.

A scan resumed from its chunk checkpoints must serialise to exactly the
same ``payload_json()`` as the committed reference, whatever encoding the
result cache uses for chunk columns on disk.
"""

import hashlib

import pytest

from repro.design import DeviceScan
from repro.io.results import ResultCache

from .conftest import GAIN, MAX_T, ON_OFF, TOLERANCES, make_spec

#: A 2-D grid over three temperatures with ragged chunks.
GRID = dict(
    name="digest_grid",
    axes=[{"parameter": "gate_capacitance", "start": 4e-19,
           "stop": 8e-18, "points": 11, "spacing": "log"},
          {"parameter": "junction_capacitance", "start": 2e-19,
           "stop": 4e-18, "points": 7, "spacing": "log"},
          {"parameter": "temperature", "values": [0.5, 2.0, 4.0]}],
    constraints=[GAIN, ON_OFF, MAX_T],
    seed=20240611,
    chunk_size=40,
)

#: A Monte-Carlo yield scan (tolerances drawn per point from the seed).
TOLERANCE = dict(
    name="digest_tolerance",
    axes=[{"parameter": "gate_capacitance", "start": 7e-19,
           "stop": 5e-18, "points": 5, "spacing": "log"},
          {"parameter": "junction_capacitance", "start": 4e-19,
           "stop": 2e-18, "points": 4, "spacing": "log"}],
    seed=77,
    tolerances=TOLERANCES,
    tolerance_samples=24,
    chunk_size=6,
)

#: SHA-256 of ``payload_json()`` of each scan, resumed from a full cache.
PINNED = {
    "grid":
        "46abd4448dfbe94755125527a51fdab58fe9c002d885fc34b952e63e1aad1542",
    "tolerance":
        "531ccc99caa97e73ae08214d7b4f93e110a19e975185b1743753352821d4f856",
}


def resumed_digest(spec, root):
    """Scan cold into a fresh cache, re-run it warm, digest the warm map."""
    cache = ResultCache(root)
    DeviceScan(spec, cache=cache).run()
    scan = DeviceScan(spec, cache=cache)
    feasibility = scan.run()
    assert scan.chunks_computed == 0
    assert scan.chunks_resumed == len(scan.chunk_plan())
    return hashlib.sha256(feasibility.payload_json().encode()).hexdigest()


@pytest.mark.parametrize("name, overrides", [("grid", GRID),
                                             ("tolerance", TOLERANCE)])
def test_resumed_scan_reproduces_the_pinned_payload(name, overrides,
                                                    tmp_path):
    assert resumed_digest(make_spec(**overrides), tmp_path) == PINNED[name]
