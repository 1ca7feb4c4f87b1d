"""Chunk status codes: the clean-chunk fast path matches the per-point walk.

A chunk whose batch recorded no errors, evaluated outside a fault-injection
run, takes its statuses straight from the degraded flags.  An active but
unarmed :class:`FaultInjector` forces the per-point policy walk without
changing anything else, so the two payloads must agree bit for bit.
"""

import numpy as np
import pytest

from repro.design import DeviceScan
from repro.design.feasibility import STATUS_NAMES, merge_chunk_payloads
from repro.master import statespace
from repro.resilience import FailurePolicy, FaultInjector

from .conftest import TOLERANCES, make_spec

#: A policy whose failure budget the walk has to honour.
BUDGETED = FailurePolicy(max_retries=0, max_failures=1)


def chunk_payloads(scan):
    """Every chunk's payload, computed in plan order."""
    return [scan._compute_chunk(chunk) for chunk in scan.chunk_plan()]


def assert_same_payloads(fast, walked):
    assert len(fast) == len(walked)
    for one, other in zip(fast, walked):
        assert one.keys() == other.keys()
        for name, value in one.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == other[name].dtype, name
                assert value.shape == other[name].shape, name
                assert value.tobytes() == other[name].tobytes(), name
            else:
                assert value == other[name], name


def walk_counts(monkeypatch):
    """Count the per-point walks :class:`DeviceScan` runs from now on."""
    walks = []
    original = DeviceScan._walk_points

    def counted(self, chunk, outcome):
        walks.append(chunk.index)
        return original(self, chunk, outcome)

    monkeypatch.setattr(DeviceScan, "_walk_points", counted)
    return walks


def fast_and_walked(spec, policy, monkeypatch):
    """A scan's chunk payloads without and with an unarmed injector."""
    walks = walk_counts(monkeypatch)
    fast = chunk_payloads(DeviceScan(spec, policy=policy))
    fast_walks = len(walks)
    with FaultInjector():
        walked = chunk_payloads(DeviceScan(spec, policy=policy))
    assert len(walks) - fast_walks == len(walked)
    return fast, walked, fast_walks


class TestCleanChunkFastPath:
    @pytest.mark.parametrize("policy", [None, FailurePolicy(), BUDGETED],
                             ids=["no-policy", "default", "max-failures"])
    def test_analytic_payloads_match_the_walk(self, policy, monkeypatch):
        spec = make_spec(tolerances=TOLERANCES, tolerance_samples=4)
        fast, walked, fast_walks = fast_and_walked(spec, policy,
                                                   monkeypatch)
        assert fast_walks == 0
        assert_same_payloads(fast, walked)
        for payload in fast:
            assert payload["statuses"].dtype == np.uint8
            assert set(payload["statuses"].tolist()) == {0}

    @pytest.mark.parametrize("policy", [FailurePolicy(), BUDGETED],
                             ids=["default", "max-failures"])
    def test_degraded_master_rows_match_the_walk(self, policy,
                                                 monkeypatch):
        # Windows capped at 7 states: every warm point keeps a truncated
        # window and reads degraded.
        monkeypatch.setattr(statespace, "MAX_STATES", 7)
        spec = make_spec(engine="master", temperature=200.0, chunk_size=4)
        fast, walked, fast_walks = fast_and_walked(spec, policy,
                                                   monkeypatch)
        assert fast_walks == 0
        assert_same_payloads(fast, walked)
        codes = np.concatenate([payload["statuses"] for payload in fast])
        assert {STATUS_NAMES[code] for code in codes} == {"degraded"}

    @pytest.mark.parametrize("engine", ["analytic", "master"])
    def test_chunks_with_errors_always_walk(self, engine, monkeypatch):
        spec = make_spec(engine=engine, chunk_size=5, axes=[{
            "parameter": "gate_capacitance",
            "values": [2e-18, -1e-18, -2e-18, 3e-18, 4e-18]}])
        fast, walked, fast_walks = fast_and_walked(spec, BUDGETED,
                                                   monkeypatch)
        assert fast_walks == 1
        assert_same_payloads(fast, walked)
        assert [STATUS_NAMES[code] for code in fast[0]["statuses"]] \
            == ["ok", "failed", "failed", "skipped", "skipped"]


class TestStatusCodes:
    def test_codes_decode_to_the_status_names(self):
        chunks = [{"start": 0, "verdicts": np.zeros(2, np.int8),
                   "robustness": np.zeros(2), "margins": np.zeros((1, 2)),
                   "on_currents": np.zeros(2), "off_currents": np.zeros(2),
                   "statuses": np.array([1, 2], dtype=np.uint8)},
                  {"start": 3, "verdicts": np.zeros(1, np.int8),
                   "robustness": np.zeros(1), "margins": np.zeros((1, 1)),
                   "on_currents": np.zeros(1), "off_currents": np.zeros(1),
                   "statuses": np.array([0], dtype=np.uint8)}]
        merged = merge_chunk_payloads(chunks, 5, 1)
        assert merged["statuses"] == ("degraded", "failed", "skipped", "ok",
                                      "skipped")

    def test_unknown_code_in_a_cached_chunk_is_recomputed(self, tmp_path):
        from repro.io.results import ResultCache

        spec = make_spec()
        cache = ResultCache(tmp_path)
        clean = DeviceScan(spec, cache=cache).run()
        first = DeviceScan(spec, cache=cache).chunk_plan()[0]
        payload = cache.load(first.key)
        payload["statuses"][0] = len(STATUS_NAMES)
        cache.store(first.key, payload)
        rescan = DeviceScan(spec, cache=cache)
        again = rescan.run()
        assert rescan.chunks_computed == 1
        assert again.statuses == clean.statuses
