"""Result containers with CSV round-trips and a content-hash result cache.

Sweep-style results (a swept variable plus one or more recorded traces) are
the common currency of every experiment in the package.  :class:`SweepRecord`
stores them with metadata and serialises to/from CSV so benchmark outputs can
be archived and re-plotted without re-running the simulation.

:class:`ResultCache` persists arbitrary JSON payloads keyed by a content hash
(plus a code-version tag): the scenario layer hashes a
:class:`~repro.scenarios.spec.ScenarioSpec` and a cache hit means the engine
dispatch is skipped entirely.  Writes are atomic (temp file +
``os.replace``), so concurrent writers cannot corrupt an artifact, and a
corrupted or truncated artifact is treated as a miss and evicted.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import AnalysisError

_LOG = logging.getLogger("repro.io.cache")


@dataclass
class SweepRecord:
    """A swept variable plus named recorded traces.

    Attributes
    ----------
    name:
        Identifier of the sweep (e.g. ``"id_vg_q0_0.25"``).
    sweep_label:
        Name of the swept quantity (e.g. ``"V_gate [V]"``).
    sweep_values:
        The swept values.
    traces:
        Mapping trace name -> array of recorded values (same length as
        ``sweep_values``).
    metadata:
        Free-form string metadata (temperatures, device parameters, ...).
    """

    name: str
    sweep_label: str
    sweep_values: np.ndarray
    traces: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sweep_values = np.asarray(self.sweep_values, dtype=float)
        for key, values in list(self.traces.items()):
            array = np.asarray(values, dtype=float)
            if array.shape != self.sweep_values.shape:
                raise AnalysisError(
                    f"trace {key!r} has shape {array.shape}, expected "
                    f"{self.sweep_values.shape}"
                )
            self.traces[key] = array

    def add_trace(self, name: str, values: Sequence[float]) -> None:
        """Add one more recorded trace (must match the sweep length)."""
        array = np.asarray(values, dtype=float)
        if array.shape != self.sweep_values.shape:
            raise AnalysisError(
                f"trace {name!r} has shape {array.shape}, expected "
                f"{self.sweep_values.shape}"
            )
        self.traces[name] = array

    def trace(self, name: str) -> np.ndarray:
        """Look up a trace by name."""
        try:
            return self.traces[name]
        except KeyError:
            raise AnalysisError(
                f"unknown trace {name!r}; known traces: {sorted(self.traces)}"
            ) from None

    # ---------------------------------------------------------------- CSV I/O

    def to_csv(self, destination: Union[str, Path, io.TextIOBase, None] = None) -> str:
        """Serialise to CSV (metadata in ``#`` comment lines).

        Returns the CSV text; when ``destination`` is a path or stream, the
        text is also written there.
        """
        buffer = io.StringIO()
        for key, value in self.metadata.items():
            buffer.write(f"# {key}={value}\n")
        buffer.write(f"# name={self.name}\n")
        writer = csv.writer(buffer)
        headers = [self.sweep_label] + list(self.traces)
        writer.writerow(headers)
        for row_index in range(self.sweep_values.size):
            row = [repr(float(self.sweep_values[row_index]))]
            row += [repr(float(self.traces[key][row_index])) for key in self.traces]
            writer.writerow(row)
        text = buffer.getvalue()
        if destination is None:
            return text
        if isinstance(destination, (str, Path)):
            Path(destination).write_text(text)
        else:
            destination.write(text)
        return text

    @classmethod
    def from_csv(cls, source: Union[str, Path, io.TextIOBase],
                 name: Optional[str] = None) -> "SweepRecord":
        """Parse a CSV produced by :meth:`to_csv`."""
        if isinstance(source, (str, Path)) and Path(source).exists():
            text = Path(source).read_text()
        elif isinstance(source, (str, Path)):
            text = str(source)
        else:
            text = source.read()
        metadata: Dict[str, str] = {}
        data_lines: List[str] = []
        for line in text.splitlines():
            if line.startswith("#"):
                stripped = line[1:].strip()
                if "=" in stripped:
                    key, _, value = stripped.partition("=")
                    metadata[key.strip()] = value.strip()
            elif line.strip():
                data_lines.append(line)
        if not data_lines:
            raise AnalysisError("CSV contains no data rows")
        reader = csv.reader(io.StringIO("\n".join(data_lines)))
        headers = next(reader)
        columns: List[List[float]] = [[] for _ in headers]
        for row in reader:
            if not row:
                continue
            for index, cell in enumerate(row):
                columns[index].append(float(cell))
        record_name = name or metadata.pop("name", "sweep")
        sweep_label = headers[0]
        traces = {header: np.array(column)
                  for header, column in zip(headers[1:], (columns[1:]))}
        return cls(name=record_name, sweep_label=sweep_label,
                   sweep_values=np.array(columns[0]), traces=traces,
                   metadata=metadata)


@dataclass
class ExperimentRecord:
    """Paper-claim-versus-measured record for one experiment (EXPERIMENTS.md rows)."""

    experiment: str
    claim: str
    measured: Dict[str, float] = field(default_factory=dict)
    verdict: str = ""

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps({
            "experiment": self.experiment,
            "claim": self.claim,
            "measured": self.measured,
            "verdict": self.verdict,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        """Parse a JSON string produced by :meth:`to_json`."""
        payload = json.loads(text)
        return cls(experiment=payload["experiment"], claim=payload["claim"],
                   measured=dict(payload.get("measured", {})),
                   verdict=payload.get("verdict", ""))


#: Bump when the on-disk artifact layout changes; folded into every cache key
#: so stale-format artifacts read as misses instead of parse errors.
#: Version 2 embeds the artifact's own cache key (:data:`CACHE_KEY_FIELD`)
#: so a renamed/copied artifact is detected as corruption instead of served.
CACHE_FORMAT_VERSION = 2

#: Reserved payload field carrying the artifact's own cache key (integrity
#: check against renamed or copied artifacts); stripped on load.
CACHE_KEY_FIELD = "__cache_key__"


@functools.lru_cache(maxsize=None)
def source_digest(root: Optional[str] = None) -> str:
    """SHA-256 digest of the ``repro`` package's Python sources.

    Folded into the default :class:`ResultCache` code version, so any
    change to result-defining code — not just a package version bump —
    turns every previously cached artifact into a miss.  Computed lazily
    on first use (never at import, so start-up does not pay for it) and
    memoised per process and root.

    Parameters
    ----------
    root:
        Package directory to digest; ``None`` means the installed
        ``repro`` package.

    Returns
    -------
    str
        Hex digest over every ``*.py`` file's relative path and bytes, in
        sorted path order.
    """
    base = Path(root) if root is not None else Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def content_hash(payload: Union[str, bytes, Mapping]) -> str:
    """SHA-256 content hash of a string, bytes, or JSON-able mapping.

    Mappings are canonicalised (sorted keys, compact separators) before
    hashing, so two dicts with the same content but different insertion
    order hash identically.

    Parameters
    ----------
    payload:
        The content to fingerprint.

    Returns
    -------
    str
        Hex digest of the canonical representation.
    """
    if isinstance(payload, Mapping):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ResultCache:
    """Content-addressed JSON artifact store (spec hash -> result payload).

    Failure semantics: the cache *degrades, it never crashes a run*.  A
    corrupted/truncated/mis-keyed artifact is evicted and served as a miss;
    an unwritable cache directory turns :meth:`store` into a logged no-op.
    Every such decision is logged on the ``repro.io.cache`` logger and
    counted on the instance (``hits``/``misses``/``evictions``/
    ``store_failures``, see :meth:`stats`), so silent corruption cannot hide
    behind a healthy-looking run.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created on first use).
    code_version:
        Version tag folded into every key.  Defaults to the package version,
        :data:`CACHE_FORMAT_VERSION` and the :func:`source_digest` of the
        package, so editing any module, upgrading the package or changing
        the artifact format invalidates the whole cache instead of serving
        results computed by older code.
    """

    def __init__(self, root: Union[str, Path],
                 code_version: Optional[str] = None) -> None:
        self.root = Path(root)
        self._code_version = code_version
        #: Loads served from a valid artifact.
        self.hits = 0
        #: Loads that found no (usable) artifact.
        self.misses = 0
        #: Corrupted artifacts removed (or scheduled for removal) on load.
        self.evictions = 0
        #: Stores that degraded to a no-op on an I/O failure.
        self.store_failures = 0

    @property
    def code_version(self) -> str:
        """The version tag folded into every key (see the class docs)."""
        if self._code_version is None:
            from .. import __version__

            self._code_version = (f"{__version__}+fmt{CACHE_FORMAT_VERSION}"
                                  f"+src{source_digest()[:16]}")
        return self._code_version

    def stats(self) -> Dict[str, int]:
        """The hit/miss/eviction/store-failure counters as a plain dict."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "store_failures": self.store_failures}

    def key_for(self, spec_hash: str) -> str:
        """Cache key for a spec content hash under the current code version."""
        return content_hash(f"{self.code_version}:{spec_hash}")

    def path_for(self, key: str) -> Path:
        """Artifact path for a cache key."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict]:
        """Load the payload stored under ``key``; ``None`` on miss.

        A corrupted artifact (truncated write from a crashed process, manual
        edit, disk fault) is evicted and reported as a miss so the caller
        recomputes instead of crashing.

        Parameters
        ----------
        key:
            Cache key from :meth:`key_for`.

        Returns
        -------
        dict or None
            The stored payload, or ``None`` when absent or unreadable.
        """
        from ..resilience.faults import inject_value

        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            # Readable-in-principle artifact we could not read (permissions,
            # I/O error): a miss, but one worth telling the operator about.
            self.misses += 1
            _LOG.warning("cache read failed for %s (treated as miss): %r",
                         path, error)
            return None
        except UnicodeDecodeError as error:
            return self._evict(path, f"binary corruption: {error!r}")
        text = inject_value("cache.load", text)
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, ValueError) as error:
            return self._evict(path, f"unparseable JSON: {error!r}")
        if not isinstance(payload, dict):
            return self._evict(
                path, f"top-level {type(payload).__name__}, expected object")
        embedded = payload.pop(CACHE_KEY_FIELD, key)
        if embedded != key:
            return self._evict(
                path, f"key mismatch: artifact claims {str(embedded)[:16]}…, "
                      f"filed under {key[:16]}…")
        self.hits += 1
        return payload

    def _evict(self, path: Path, reason: str) -> Optional[Dict]:
        """Remove a corrupted artifact (best effort), log it, count a miss."""
        self.evictions += 1
        self.misses += 1
        _LOG.warning("cache evicted corrupted artifact %s: %s", path, reason)
        try:
            path.unlink()
        except OSError as error:
            _LOG.warning("cache could not remove %s: %r", path, error)
        return None

    def store(self, key: str, payload: Mapping) -> Optional[Path]:
        """Persist ``payload`` under ``key`` atomically; ``None`` on failure.

        The payload (plus its own key under :data:`CACHE_KEY_FIELD`, the
        integrity check :meth:`load` verifies) is written to a temporary
        file in the cache directory and moved into place with
        ``os.replace``, so readers never observe a half-written artifact
        and the last concurrent writer wins cleanly.  An I/O failure
        (unwritable directory, full disk) degrades to a logged no-op — a
        result that cannot be cached is still a result.

        Parameters
        ----------
        key:
            Cache key from :meth:`key_for`.
        payload:
            JSON-serialisable mapping to store (must not already contain
            :data:`CACHE_KEY_FIELD`).

        Returns
        -------
        pathlib.Path or None
            The artifact path, or ``None`` when the store degraded.
        """
        from ..resilience.events import emit_degradation
        from ..resilience.faults import inject

        path = self.path_for(key)
        stamped = dict(payload)
        stamped[CACHE_KEY_FIELD] = key
        text = json.dumps(stamped, sort_keys=True, indent=1)
        temp_name: Optional[str] = None
        try:
            inject("cache.store")
            self.root.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=f".{key[:16]}-", suffix=".tmp")
            with os.fdopen(descriptor, "w") as handle:
                handle.write(text)
            os.replace(temp_name, path)
        except OSError as error:
            self.store_failures += 1
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            emit_degradation("cache.store", "degrade:uncached",
                             f"{path}: {error!r}")
            return None
        except BaseException:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            raise
        return path

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


__all__ = ["CACHE_FORMAT_VERSION", "CACHE_KEY_FIELD", "ExperimentRecord",
           "ResultCache", "SweepRecord", "content_hash", "source_digest"]
