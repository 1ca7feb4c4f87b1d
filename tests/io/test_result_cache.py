"""Tests for the content-hash result cache (hit/miss, corruption, concurrency)."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.io import ResultCache, content_hash
from repro.io.results import source_digest

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
