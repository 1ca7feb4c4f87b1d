"""Tests for the content-hash result cache (hit/miss, corruption, concurrency)."""

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.io import ResultCache, content_hash
from repro.io.documents import canonical_json
from repro.io.results import CACHE_KEY_FIELD, NDARRAY_TAG, source_digest

#: Prints whether importing repro computed the source digest, then a key.
_KEY_PROBE = """
import sys
from repro.io.results import ResultCache, source_digest
cache = ResultCache(sys.argv[1])
print(source_digest.cache_info().currsize)
print(cache.key_for("spec"))
"""


class TestContentHash:
    def test_stable_for_equal_content(self):
        assert content_hash("abc") == content_hash("abc")
        assert content_hash(b"abc") == content_hash("abc")

    def test_mapping_order_does_not_matter(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_different_content_different_hash(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(content_hash({"spec": 1}))
        assert cache.load(key) is None
        cache.store(key, {"payload": {"x": 1.0}})
        assert cache.load(key) == {"payload": {"x": 1.0}}

    def test_spec_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = cache.key_for(content_hash({"points": 10}))
        key_b = cache.key_for(content_hash({"points": 11}))
        assert key_a != key_b
        cache.store(key_a, {"payload": 1})
        assert cache.load(key_b) is None

    def test_code_version_change_invalidates(self, tmp_path):
        spec_hash = content_hash({"spec": 1})
        old = ResultCache(tmp_path, code_version="1.0")
        new = ResultCache(tmp_path, code_version="2.0")
        old.store(old.key_for(spec_hash), {"payload": 1})
        assert new.load(new.key_for(spec_hash)) is None

    def test_default_key_folds_in_the_source_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.code_version.endswith(f"+src{source_digest()[:16]}")
        assert cache.code_version.startswith(f"{repro.__version__}+fmt")

    def test_editing_a_module_changes_the_key(self, tmp_path):
        package = tmp_path / "src" / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def probe():
            completed = subprocess.run(
                [sys.executable, "-c", _KEY_PROBE, str(tmp_path / "cache")],
                env={"PYTHONPATH": str(tmp_path / "src"),
                     "PYTHONDONTWRITEBYTECODE": "1"},
                capture_output=True, text=True, check=True)
            computed_at_import, key = completed.stdout.split()
            # Lazy: building a cache does not digest the sources.
            assert computed_at_import == "0"
            return key

        original = probe()
        assert probe() == original
        module = package / "core" / "rates.py"
        module.write_text(module.read_text() + "\n# edited\n")
        assert probe() != original

    def test_source_digest_covers_every_module(self, tmp_path):
        for name in ("a.py", "sub/b.py"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text("x = 1\n")
        before = source_digest(str(tmp_path))
        (tmp_path / "sub" / "b.py").rename(tmp_path / "sub" / "c.py")
        assert source_digest.__wrapped__(str(tmp_path)) != before

    def test_corrupted_artifact_is_evicted_and_reported_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(content_hash({"spec": 1}))
        cache.store(key, {"payload": 1})
        cache.path_for(key).write_text('{"payload": 1')  # truncated write
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        # A recompute can store again afterwards.
        cache.store(key, {"payload": 2})
        assert cache.load(key) == {"payload": 2}

    def test_binary_corrupted_artifact_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(content_hash({"spec": 1}))
        cache.store(key, {"payload": 1})
        cache.path_for(key).write_bytes(b"\xff\xfe binary garbage \x00")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()

    def test_non_dict_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("[1, 2, 3]")
        assert cache.load(key) is None

    def test_store_is_atomic_no_temp_residue(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.store(key, {"payload": list(range(1000))})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_writers_leave_a_valid_artifact(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("shared")
        errors = []

        def hammer(value):
            try:
                for _ in range(25):
                    cache.store(key, {"payload": value})
                    loaded = cache.load(key)
                    # Whatever we read must be one writer's complete payload.
                    if loaded is not None:
                        assert loaded["payload"] in range(8)
            except Exception as error:  # pragma: no cover - failure report
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        final = cache.load(key)
        assert final is not None and final["payload"] in range(8)
        # The surviving artifact is well-formed JSON on disk.
        json.loads(cache.path_for(key).read_text())

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(3):
            cache.store(cache.key_for(f"spec{n}"), {"payload": n})
        assert cache.clear() == 3
        assert cache.load(cache.key_for("spec0")) is None

    def test_load_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.load(cache.key_for("x")) is None
        assert cache.clear() == 0


class TestCacheIntegrityAndCounters:
    """Corruption, degraded stores, and the hit/miss/eviction evidence trail."""

    def test_stats_counters_track_miss_hit_evict(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(content_hash({"spec": 1}))
        assert cache.load(key) is None                       # miss
        cache.store(key, {"payload": 1})
        assert cache.load(key) is not None                   # hit
        cache.path_for(key).write_text("{broken")
        assert cache.load(key) is None                       # evict (+miss)
        assert cache.stats() == {"hits": 1, "misses": 2, "evictions": 1,
                                 "store_failures": 0}

    def test_loaded_payload_does_not_leak_the_embedded_key(self, tmp_path):
        from repro.io.results import CACHE_KEY_FIELD

        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.store(key, {"payload": 1})
        loaded = cache.load(key)
        assert loaded == {"payload": 1}
        assert CACHE_KEY_FIELD not in loaded
        # ... but the on-disk artifact does carry it.
        assert CACHE_KEY_FIELD in json.loads(cache.path_for(key).read_text())

    def test_renamed_artifact_is_evicted_on_key_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = cache.key_for("a")
        key_b = cache.key_for("b")
        cache.store(key_a, {"payload": 1})
        # Simulate a mis-filed artifact (copied/renamed by hand).
        cache.path_for(key_b).write_text(cache.path_for(key_a).read_text())
        assert cache.load(key_b) is None
        assert not cache.path_for(key_b).exists()
        assert cache.evictions == 1
        # The correctly filed original is untouched.
        assert cache.load(key_a) == {"payload": 1}

    def test_unwritable_cache_root_degrades_store_to_none(self, tmp_path):
        from repro.resilience.events import capture_degradations

        # Point the cache root at an existing *file*: mkdir raises OSError
        # even for root, which chmod-based tests would not.
        blocker = tmp_path / "blocker"
        blocker.write_text("I am in the way")
        cache = ResultCache(blocker / "cache")
        with capture_degradations() as events:
            assert cache.store(cache.key_for("x"), {"payload": 1}) is None
        assert cache.store_failures == 1
        assert [(e.site, e.action) for e in events] \
            == [("cache.store", "degrade:uncached")]

    def test_injected_store_failure_degrades_instead_of_raising(self,
                                                                tmp_path):
        from repro.resilience import FaultInjector
        from repro.resilience.events import capture_degradations

        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        chaos = FaultInjector()
        chaos.arm("cache.store", error=OSError("disk full"), times=1)
        with chaos, capture_degradations() as events:
            assert cache.store(key, {"payload": 1}) is None
            # The next store (fault exhausted) succeeds.
            assert cache.store(key, {"payload": 2}) is not None
        assert cache.store_failures == 1
        assert any(e.site == "cache.store" for e in events)
        assert cache.load(key) == {"payload": 2}
        # No temp-file residue from the degraded attempt.
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_injected_load_truncation_is_evicted_as_corruption(self,
                                                               tmp_path):
        from repro.resilience import FaultInjector

        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.store(key, {"payload": 1})
        chaos = FaultInjector()
        chaos.arm("cache.load", mutate=lambda text: text[: len(text) // 2],
                  times=1)
        with chaos:
            assert cache.load(key) is None
        assert cache.evictions == 1
        assert not cache.path_for(key).exists()

    def test_eviction_of_an_unremovable_artifact_still_reads_as_miss(
            self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{broken")
        monkeypatch.setattr(Path, "unlink",
                            lambda self, *a, **k: (_ for _ in ()).throw(
                                OSError("immutable")))
        assert cache.load(key) is None
        assert cache.evictions == 1

    def test_store_failure_then_recovery_round_trip(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("block")
        degraded = ResultCache(blocker / "cache")
        key = degraded.key_for("spec")
        assert degraded.store(key, {"payload": 1}) is None
        assert degraded.load(key) is None            # nothing was persisted
        healthy = ResultCache(tmp_path / "cache")
        healthy.store(key, {"payload": 1})
        assert healthy.load(key) == {"payload": 1}


#: Dtypes the round-trip property draws from (both byte orders of float64).
COLUMN_DTYPES = st.sampled_from([np.float64, np.dtype(">f8"), np.float32,
                                 np.int8, np.int64, np.uint16, np.bool_])

#: Float64 edge values: NaN (quiet, negative, non-canonical payload),
#: signed zeros, infinities and subnormals.
EDGE_FLOATS = np.concatenate([
    np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
              -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    np.array([0x7FF0000000000001, 0xFFF8DEADBEEF0001],
             dtype=np.uint64).view(np.float64)])


def assert_bit_identical(loaded, original):
    assert isinstance(loaded, np.ndarray)
    assert loaded.dtype == original.dtype
    assert loaded.shape == original.shape
    assert loaded.tobytes() == original.tobytes()


class TestBinaryColumns:
    """Top-level arrays are stored as typed binary columns, bit for bit."""

    @given(array=hnp.arrays(COLUMN_DTYPES,
                            hnp.array_shapes(min_dims=0, max_dims=2,
                                             min_side=0, max_side=6)))
    @example(array=EDGE_FLOATS)
    @example(array=EDGE_FLOATS.reshape(2, 6))
    @example(array=np.array([-128, 0, 127], dtype=np.int8))
    @example(array=np.empty(0))
    @example(array=np.empty((3, 0), dtype=np.int8))
    @settings(max_examples=120, deadline=None)
    def test_store_load_round_trip_is_bit_exact(self, array):
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            key = cache.key_for("column")
            cache.store(key, {"column": array, "label": "x"})
            loaded = cache.load(key)
        assert loaded["label"] == "x"
        assert_bit_identical(loaded["column"], array)
        assert loaded["column"].flags.writeable

    def test_non_contiguous_arrays_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("strided")
        array = np.arange(12.0).reshape(3, 4).T
        cache.store(key, {"column": array})
        assert_bit_identical(cache.load(key)["column"], array.copy())

    def test_columns_are_tagged_binary_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("tagged")
        cache.store(key, {"column": np.arange(3, dtype=np.int8),
                          "flags": np.array([True, False]),
                          "plain": [1.5, 2.5]})
        header, body = cache.path_for(key).read_bytes().split(b"\n", 1)
        # One canonical-JSON header line, then the raw bytes of the
        # columns in sorted-name order.
        assert header.decode() == canonical_json({
            CACHE_KEY_FIELD: key, "column": {NDARRAY_TAG: ["|i1", [3]]},
            "flags": {NDARRAY_TAG: ["|b1", [2]]}, "plain": [1.5, 2.5]})
        assert body == b"\x00\x01\x02\x01\x00"

    def test_columns_are_views_on_one_writable_buffer(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("views")
        cache.store(key, {"a": np.arange(3.0), "b": np.arange(2)})
        loaded = cache.load(key)
        buffers = []
        for column in (loaded["a"], loaded["b"]):
            while isinstance(column, np.ndarray):
                column = column.base
            buffers.append(column.obj)  # a memoryview of the buffer
        assert isinstance(buffers[0], bytearray)
        assert buffers[0] is buffers[1]
        loaded["a"][0] = 7.0
        assert loaded["a"][0] == 7.0

    def test_object_arrays_are_refused_at_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError, match="cannot cache"):
            cache.store(cache.key_for("x"),
                        {"column": np.array([{}, None], dtype=object)})
        assert list(tmp_path.iterdir()) == []


def _rewrite(cache, key, tag, body):
    """Re-file the stored ``column`` with ``tag`` and ``body``, key intact."""
    path = cache.path_for(key)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["column"] = tag
    path.write_bytes(canonical_json(header).encode() + b"\n" + body)


def _column(dtype="<f8", shape=(4,)):
    """A well-formed tag; 32 bytes is the right body for the default."""
    return {NDARRAY_TAG: [dtype, list(shape)]}


class TestMalformedColumns:
    """A column that does not decode is corruption: evicted, a miss."""

    @pytest.mark.parametrize("tag, body", [
        pytest.param(_column(shape=(5,)), bytes(32),
                     id="byte-count-mismatch"),
        pytest.param(_column(), bytes(31), id="truncated-data"),
        pytest.param(_column(), bytes(33), id="trailing-bytes"),
        pytest.param(_column("<x8"), bytes(32), id="unknown-dtype"),
        pytest.param(_column("|O"), bytes(32), id="object-dtype"),
        pytest.param({NDARRAY_TAG: ["<f8"]}, bytes(32),
                     id="tag-missing-field"),
        pytest.param({NDARRAY_TAG: ["<f8", [4], "AAAA"]}, bytes(32),
                     id="tag-extra-field"),
        pytest.param({**_column(), "extra": 1}, bytes(32),
                     id="tag-extra-key"),
        pytest.param(_column(shape=(-2, -2)), bytes(32), id="tag-bad-shape"),
    ])
    def test_malformed_column_is_evicted_as_a_miss(self, tmp_path, tag,
                                                   body):
        cache = ResultCache(tmp_path)
        key = cache.key_for("column")
        cache.store(key, {"column": np.zeros(4)})
        _rewrite(cache, key, tag, body)
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        assert cache.evictions == 1
        assert cache.misses == 1

    def test_well_formed_rewrite_is_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("column")
        cache.store(key, {"column": np.zeros(4)})
        _rewrite(cache, key, _column(), np.arange(4.0).tobytes())
        assert_bit_identical(cache.load(key)["column"], np.arange(4.0))


class TestDamagedArtifacts:
    """Truncated or garbled artifacts are evicted and never served."""

    PAYLOAD = {"currents": np.array([0.0, -1.5, np.nan]),
               "codes": np.array([0, 3], dtype=np.uint8), "engine": "x"}

    def stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("damaged")
        cache.store(key, self.PAYLOAD)
        return cache, key, cache.path_for(key).read_bytes()

    def test_truncation_at_every_offset_is_evicted(self, tmp_path):
        cache, key, data = self.stored(tmp_path)
        for offset in range(len(data)):
            cache.path_for(key).write_bytes(data[:offset])
            assert cache.load(key) is None, offset
            assert not cache.path_for(key).exists()
        assert cache.stats() == {"hits": 0, "misses": len(data),
                                 "evictions": len(data), "store_failures": 0}

    def test_garbled_header_byte_is_evicted(self, tmp_path):
        cache, key, data = self.stored(tmp_path)
        header_end = data.index(b"\n")
        for position in range(header_end + 1):
            garbled = bytearray(data)
            garbled[position] = 0xFF
            cache.path_for(key).write_bytes(bytes(garbled))
            assert cache.load(key) is None, position
        assert cache.hits == 0
        assert cache.evictions == header_end + 1

    def test_header_line_alone_is_evicted(self, tmp_path):
        cache, key, data = self.stored(tmp_path)
        cache.path_for(key).write_bytes(data[:data.index(b"\n")])
        assert cache.load(key) is None
        assert cache.evictions == 1

    def test_intact_artifact_is_served_after_the_damage(self, tmp_path):
        cache, key, data = self.stored(tmp_path)
        cache.path_for(key).write_bytes(data[:-1])
        assert cache.load(key) is None
        cache.path_for(key).write_bytes(data)
        loaded = cache.load(key)
        assert loaded["engine"] == "x"
        for name in ("currents", "codes"):
            assert_bit_identical(loaded[name], self.PAYLOAD[name])


class TestClearRemovesOrphanedTempFiles:
    def test_clear_removes_and_counts_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("x")
        cache.store(key, {"payload": 1})
        # What a writer killed between mkstemp and os.replace leaves.
        orphan = tmp_path / f".{key[:16]}-k1ll3d.tmp"
        orphan.write_text('{"payload": 2')
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []
