"""Pinned digests of a cache-resumed checkpointed sweep.

The merged currents, stderrs and point statuses of a sweep resumed from
its chunk checkpoints must match the committed reference bit for bit,
whatever encoding the result cache uses for chunk columns on disk.
"""

import hashlib
import json

import numpy as np

from repro.devices import SETTransistor
from repro.engines import SweepAxes
from repro.io.results import ResultCache
from repro.resilience import CheckpointedSweep, FailurePolicy

#: SHA-256 of the resumed sweep's currents, stderrs and statuses bytes.
PINNED = {
    "currents":
        "a876f81d38dafd5311ff825e42d0d1f42c656f5ed76fff9047c17d5751be7265",
    "stderrs":
        "c14793229f510acb19735b54632f38c9fb227e9d8e36590c3f5bf2e23ce19164",
    "statuses":
        "0ac540ec3871ba2cbc29225b4e2938eff3fffe5245f4f5045bc89e18b41c958d",
}


def checkpointed(cache):
    device = SETTransistor(junction_capacitance=1e-18,
                           gate_capacitance=2e-18, junction_resistance=1e6)
    axes = SweepAxes(np.linspace(0.0, 2.0 * device.gate_period, 23), 2e-3)
    return CheckpointedSweep("montecarlo", device, axes, cache=cache,
                             temperature=1.5, seed=4242, chunk_size=5,
                             policy=FailurePolicy(), max_events=400,
                             warmup_events=40)


def test_resumed_sweep_reproduces_the_pinned_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    checkpointed(cache).run()
    sweep = checkpointed(cache)
    result = sweep.run()
    assert sweep.chunks_computed == 0
    assert sweep.chunks_resumed == len(sweep.chunk_plan())
    statuses = json.dumps([record.as_dict() for record in result.statuses],
                          sort_keys=True)
    digests = {
        "currents": result.currents.tobytes(),
        "stderrs": result.stderrs.tobytes(),
        "statuses": statuses.encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in digests.items()} == PINNED
