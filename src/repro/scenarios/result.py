"""Scenario results: metrics, tables, sweep records, and JSON round-trips.

A :class:`ScenarioResult` is the uniform product of every scenario run:
named scalar ``metrics`` (what benchmarks assert on), printable ``tables``,
full :class:`~repro.io.results.SweepRecord` traces, free-form ``notes``, and
a ``meta`` block.  Everything except ``meta`` serialises to a canonical JSON
*payload* — that payload is what the result cache stores, and for seeded
deterministic scenarios a cached run byte-matches a fresh run.  (Scenarios
whose *results* are measurements of the machine — ``simulator_comparison``'s
wall-clock ``runtime_s_*`` metrics — cache the values measured when the
artifact was computed.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..io.documents import canonical_json
from ..io.results import SweepRecord
from ..io.tables import format_table


@dataclass
class ResultTable:
    """One printable table of a scenario result.

    Parameters
    ----------
    headers:
        Column headers.
    rows:
        Row cells (numbers, strings, or booleans).
    title:
        Optional table caption.
    """

    headers: List[str]
    rows: List[List[object]]
    title: str = ""

    def to_dict(self) -> Dict:
        """JSON-able form with every cell canonicalised."""
        return {"title": self.title,
                "headers": [str(h) for h in self.headers],
                "rows": [[_jsonify(cell) for cell in row]
                         for row in self.rows]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ResultTable":
        """Inverse of :meth:`to_dict`."""
        return cls(headers=list(payload.get("headers", [])),
                   rows=[list(row) for row in payload.get("rows", [])],
                   title=str(payload.get("title", "")))


@dataclass
class ScenarioResult:
    """The uniform product of one scenario run.

    Parameters
    ----------
    name:
        Scenario name.
    engine:
        Engine that actually ran (after ``"auto"`` resolution).
    metrics:
        Named scalar results; the quantitative claims live here.
    tables:
        Printable tables (mirrors what the old benchmark scripts printed).
    records:
        Full sweep traces for archiving/re-plotting.
    notes:
        Free-form one-line remarks printed after the tables.
    meta:
        Run metadata (elapsed seconds, cache status, spec hash).  Excluded
        from :meth:`payload_dict`, so cached and fresh runs byte-match.
    """

    name: str
    engine: str
    metrics: Dict[str, float] = field(default_factory=dict)
    tables: List[ResultTable] = field(default_factory=list)
    records: List[SweepRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors

    def metric(self, name: str) -> float:
        """Look up one metric by name (raises with the known names on typo)."""
        try:
            return self.metrics[name]
        except KeyError:
            raise AnalysisError(
                f"unknown metric {name!r}; known metrics: "
                f"{sorted(self.metrics)}") from None

    def record(self, name: str) -> SweepRecord:
        """Look up one sweep record by name."""
        for record in self.records:
            if record.name == name:
                return record
        raise AnalysisError(
            f"unknown record {name!r}; known records: "
            f"{sorted(r.name for r in self.records)}")

    @property
    def cache_hit(self) -> bool:
        """Whether this result was served from the result cache."""
        return self.meta.get("cache") == "hit"

    # ----------------------------------------------------------- presentation

    def add_table(self, headers: Sequence[str], rows: Sequence[Sequence[object]],
                  title: str = "") -> None:
        """Append a printable table."""
        self.tables.append(ResultTable(headers=list(headers),
                                       rows=[list(row) for row in rows],
                                       title=title))

    def print(self, file=None) -> None:
        """Print every table and note (the CLI's ``run`` output)."""
        for table in self.tables:
            print(format_table(table.headers, table.rows,
                               title=table.title or None), file=file)
            print(file=file)
        for note in self.notes:
            print(note, file=file)

    # ----------------------------------------------------------- round trips

    def payload_dict(self) -> Dict:
        """The deterministic payload (everything except ``meta``)."""
        return {
            "name": self.name,
            "engine": self.engine,
            "metrics": {key: _jsonify(value)
                        for key, value in sorted(self.metrics.items())},
            "tables": [table.to_dict() for table in self.tables],
            "records": [_record_to_dict(record) for record in self.records],
            "notes": [str(note) for note in self.notes],
        }

    def payload_json(self) -> str:
        """Canonical JSON of :meth:`payload_dict` (the byte-match surface)."""
        return canonical_json(self.payload_dict())

    @classmethod
    def from_payload(cls, payload: Mapping,
                     meta: Optional[Dict] = None) -> "ScenarioResult":
        """Rebuild a result from a stored payload (cache hits)."""
        return cls(
            name=str(payload["name"]),
            engine=str(payload["engine"]),
            metrics={str(key): value
                     for key, value in payload.get("metrics", {}).items()},
            tables=[ResultTable.from_dict(table)
                    for table in payload.get("tables", [])],
            records=[_record_from_dict(record)
                     for record in payload.get("records", [])],
            notes=[str(note) for note in payload.get("notes", [])],
            meta=dict(meta or {}),
        )


def _jsonify(value):
    """Convert one cell/metric value to a canonical JSON-able scalar."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _record_to_dict(record: SweepRecord) -> Dict:
    """JSON-able form of a :class:`SweepRecord`."""
    return {
        "name": record.name,
        "sweep_label": record.sweep_label,
        "sweep_values": [float(v) for v in record.sweep_values],
        "traces": {key: [float(v) for v in values]
                   for key, values in sorted(record.traces.items())},
        "metadata": {str(k): str(v) for k, v in sorted(record.metadata.items())},
    }


def _record_from_dict(payload: Mapping) -> SweepRecord:
    """Inverse of :func:`_record_to_dict`."""
    return SweepRecord(
        name=str(payload["name"]),
        sweep_label=str(payload.get("sweep_label", "x")),
        sweep_values=np.asarray(payload.get("sweep_values", []), dtype=float),
        traces={key: np.asarray(values, dtype=float)
                for key, values in payload.get("traces", {}).items()},
        metadata=dict(payload.get("metadata", {})),
    )


__all__ = ["ResultTable", "ScenarioResult"]
