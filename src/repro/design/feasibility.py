"""Feasibility maps: per-point verdicts and margins over a design grid.

A :class:`FeasibilityMap` is the result of one design scan: for every point
of the device/environment grid it records a three-valued **verdict**
(:data:`FEASIBLE` / :data:`INFEASIBLE` / :data:`UNKNOWN`), the
**robustness margin** (the minimum hard-constraint margin — how far inside
or outside the feasible window the point sits; fragile designs have small
positive margins), every constraint's individual margin, the on/off
operating currents, an optional per-point tolerance **yield**, and a
per-point status string (``ok`` / ``degraded`` / ``failed`` / ``skipped``)
mirroring the resilience layer's point records.

Maps are plain-payload serialisable (:meth:`FeasibilityMap.to_payload` /
:meth:`from_payload`) so they flow through the result cache, the CLI's
``--json`` output, and bit-identity checks (:meth:`payload_json` is a
canonical string even in the presence of NaN margins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..io.documents import canonical_json

#: Verdict codes stored in the map's int8 verdict array.
FEASIBLE = 1
INFEASIBLE = 0
UNKNOWN = -1

#: Human-readable names of the verdict codes.
VERDICT_NAMES = {FEASIBLE: "feasible", INFEASIBLE: "infeasible",
                 UNKNOWN: "unknown"}


@dataclass(frozen=True)
class FeasibilityMap:
    """Per-point design verdicts and margins over a scan grid.

    Parameters
    ----------
    spec_hash:
        Content hash of the :class:`~repro.design.spec.DesignSpec` that
        produced the map.
    engine:
        Resolved engine name the scan executed through.
    axes:
        Ordered ``(parameter, values)`` pairs — the grid geometry
        (row-major flattening, first axis slowest).
    constraints:
        Ordered constraint metadata dicts (``name``/``kind``/``threshold``),
        aligned with the rows of ``margins``.
    verdicts:
        Flat ``int8`` array of verdict codes, one per grid point.
    robustness:
        Flat float array: minimum hard-constraint margin per point
        (NaN where unknown).
    margins:
        2-D float array, one row per constraint (same order as
        ``constraints``), one column per grid point.
    on_currents, off_currents:
        Flat float arrays of the operating currents (NaN where the scan
        skipped the engine solves).
    statuses:
        Per-point status strings: ``"ok"``, ``"degraded"``, ``"failed"``, or
        ``"skipped"``.
    yields:
        Optional flat float array of per-point tolerance-MC yield in
        ``[0, 1]`` (``None`` when the spec declares no tolerances).
    chunks_computed, chunks_resumed:
        How many checkpoint chunks the producing scan computed vs loaded.
    """

    spec_hash: str
    engine: str
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    constraints: Tuple[Mapping[str, Any], ...]
    verdicts: np.ndarray
    robustness: np.ndarray
    margins: np.ndarray
    on_currents: np.ndarray
    off_currents: np.ndarray
    statuses: Tuple[str, ...]
    yields: Optional[np.ndarray] = None
    chunks_computed: int = 0
    chunks_resumed: int = 0

    def __post_init__(self) -> None:
        """Normalise array dtypes and validate the grid geometry."""
        object.__setattr__(self, "axes",
                           tuple((str(name), tuple(float(v) for v in values))
                                 for name, values in self.axes))
        object.__setattr__(self, "constraints",
                           tuple(dict(c) for c in self.constraints))
        object.__setattr__(self, "verdicts",
                           np.asarray(self.verdicts, dtype=np.int8))
        for attribute in ("robustness", "on_currents", "off_currents"):
            object.__setattr__(self, attribute,
                               np.asarray(getattr(self, attribute),
                                          dtype=float))
        object.__setattr__(self, "margins",
                           np.asarray(self.margins, dtype=float))
        if self.yields is not None:
            object.__setattr__(self, "yields",
                               np.asarray(self.yields, dtype=float))
        object.__setattr__(self, "statuses",
                           tuple(str(s) for s in self.statuses))
        total = self.size
        for label, array in (("verdicts", self.verdicts),
                             ("robustness", self.robustness),
                             ("on_currents", self.on_currents),
                             ("off_currents", self.off_currents)):
            if array.shape != (total,):
                raise ValidationError(
                    f"feasibility map {label} has shape {array.shape}, "
                    f"expected ({total},)")
        if len(self.statuses) != total:
            raise ValidationError(
                f"feasibility map has {len(self.statuses)} statuses for "
                f"{total} points")
        expected = (len(self.constraints), total)
        if self.margins.shape != expected:
            raise ValidationError(
                f"feasibility map margins have shape {self.margins.shape}, "
                f"expected {expected}")
        if self.yields is not None and self.yields.shape != (total,):
            raise ValidationError(
                f"feasibility map yields have shape {self.yields.shape}, "
                f"expected ({total},)")

    # ------------------------------------------------------------- geometry

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid shape, one entry per axis."""
        return tuple(len(values) for _, values in self.axes)

    @property
    def size(self) -> int:
        """Total number of grid points."""
        return int(np.prod(self.shape)) if self.axes else 0

    @property
    def parameters(self) -> Tuple[str, ...]:
        """The swept parameter names, in axis order."""
        return tuple(name for name, _ in self.axes)

    def point_parameters(self, flat_index: int) -> Dict[str, float]:
        """The swept parameter values at one flat grid index."""
        multi = np.unravel_index(int(flat_index), self.shape)
        return {name: values[position]
                for (name, values), position in zip(self.axes, multi)}

    # -------------------------------------------------------------- queries

    def verdict_grid(self) -> np.ndarray:
        """The verdict array reshaped to the grid."""
        return self.verdicts.reshape(self.shape)

    def robustness_grid(self) -> np.ndarray:
        """The robustness-margin array reshaped to the grid."""
        return self.robustness.reshape(self.shape)

    def margin_grid(self, constraint: str) -> np.ndarray:
        """One constraint's margin array reshaped to the grid."""
        for row, meta in enumerate(self.constraints):
            if meta["name"] == constraint:
                return self.margins[row].reshape(self.shape)
        raise ValidationError(
            f"feasibility map has no constraint {constraint!r}; "
            f"constraints: {[c['name'] for c in self.constraints]}")

    def yield_grid(self) -> np.ndarray:
        """The tolerance-yield array reshaped to the grid."""
        if self.yields is None:
            raise ValidationError(
                "feasibility map carries no tolerance yields (the spec "
                "declares no tolerances)")
        return self.yields.reshape(self.shape)

    def counts(self) -> Dict[str, int]:
        """Verdict histogram: feasible / infeasible / unknown counts."""
        return {name: int(np.sum(self.verdicts == code))
                for code, name in sorted(VERDICT_NAMES.items())}

    @property
    def feasible_fraction(self) -> float:
        """Fraction of *classified* points that are feasible.

        Unknown points are excluded from the denominator; 0.0 when nothing
        was classified.
        """
        known = int(np.sum(self.verdicts != UNKNOWN))
        if known == 0:
            return 0.0
        return float(np.sum(self.verdicts == FEASIBLE)) / known

    @property
    def is_partial(self) -> bool:
        """Whether any point is unclassified (failed or skipped mid-scan)."""
        return bool(np.any(self.verdicts == UNKNOWN))

    def most_robust_point(self) -> Optional[int]:
        """Flat index of the feasible point with the largest margin."""
        feasible = self.verdicts == FEASIBLE
        if not np.any(feasible):
            return None
        margins = np.where(feasible, self.robustness, -np.inf)
        return int(np.nanargmax(margins))

    # ------------------------------------------------------------- payloads

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload (inverse of :meth:`from_payload`)."""
        payload: Dict[str, Any] = {
            "kind": "feasibility-map",
            "spec_hash": self.spec_hash,
            "engine": self.engine,
            "axes": [{"parameter": name, "values": list(values)}
                     for name, values in self.axes],
            "constraints": [dict(c) for c in self.constraints],
            "verdicts": [int(v) for v in self.verdicts],
            "robustness": [float(v) for v in self.robustness],
            "margins": [[float(v) for v in row] for row in self.margins],
            "on_currents": [float(v) for v in self.on_currents],
            "off_currents": [float(v) for v in self.off_currents],
            "statuses": list(self.statuses),
            "yields": None if self.yields is None
            else [float(v) for v in self.yields],
            "chunks_computed": self.chunks_computed,
            "chunks_resumed": self.chunks_resumed,
        }
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FeasibilityMap":
        """Rebuild a map from :meth:`to_payload` output.

        Parameters
        ----------
        payload : Mapping
            A dict produced by :meth:`to_payload` (or parsed back from its
            JSON form) with ``kind`` set to ``"feasibility-map"``.

        Returns
        -------
        FeasibilityMap
            The reconstructed map; array fields are restored to their
            numpy dtypes and missing chunk counters default to zero.
        """
        if payload.get("kind") != "feasibility-map":
            raise ValidationError(
                "payload is not a feasibility map (missing "
                "kind='feasibility-map')")
        yields = payload.get("yields")
        return cls(
            spec_hash=str(payload["spec_hash"]),
            engine=str(payload["engine"]),
            axes=tuple((axis["parameter"], tuple(axis["values"]))
                       for axis in payload["axes"]),
            constraints=tuple(payload["constraints"]),
            verdicts=np.asarray(payload["verdicts"], dtype=np.int8),
            robustness=np.asarray(payload["robustness"], dtype=float),
            margins=np.asarray(payload["margins"], dtype=float),
            on_currents=np.asarray(payload["on_currents"], dtype=float),
            off_currents=np.asarray(payload["off_currents"], dtype=float),
            statuses=tuple(payload["statuses"]),
            yields=None if yields is None
            else np.asarray(yields, dtype=float),
            chunks_computed=int(payload.get("chunks_computed", 0)),
            chunks_resumed=int(payload.get("chunks_resumed", 0)),
        )

    def payload_json(self) -> str:
        """Canonical JSON string of the payload (bit-identity surface).

        Sorted keys and compact separators; NaN serialises to the literal
        ``NaN`` token, so two maps are byte-identical iff every finite
        value matches and NaNs sit in the same slots.
        """
        return canonical_json(self.to_payload())

    # --------------------------------------------------------------- display

    def summary_lines(self) -> List[str]:
        """Human-readable summary (the CLI's non-JSON output body)."""
        counts = self.counts()
        lines = [
            f"engine: {self.engine}   grid: "
            + " x ".join(f"{name}[{len(values)}]"
                         for name, values in self.axes)
            + f" = {self.size} points",
            f"verdicts: {counts['feasible']} feasible, "
            f"{counts['infeasible']} infeasible, "
            f"{counts['unknown']} unknown"
            + ("   [PARTIAL MAP]" if self.is_partial else ""),
            f"feasible fraction (of classified): "
            f"{self.feasible_fraction:.3f}",
        ]
        best = self.most_robust_point()
        if best is not None:
            assignment = ", ".join(
                f"{name}={value:g}"
                for name, value in self.point_parameters(best).items())
            lines.append(f"most robust point: #{best} ({assignment}) "
                         f"margin={self.robustness[best]:.3f}")
        if self.yields is not None:
            known = self.yields[np.isfinite(self.yields)]
            if known.size:
                lines.append(f"tolerance yield: min={known.min():.3f} "
                             f"mean={known.mean():.3f} "
                             f"max={known.max():.3f}")
        lines.append(f"checkpoints: {self.chunks_computed} computed, "
                     f"{self.chunks_resumed} resumed")
        return lines


def merge_chunk_payloads(chunks: Sequence[Mapping[str, Any]],
                         total: int, n_constraints: int) -> Dict[str, Any]:
    """Merge per-chunk scan payloads into full-grid flat arrays.

    Parameters
    ----------
    chunks:
        Chunk payloads (each with ``start``, ``verdicts``, ``robustness``,
        ``margins``, ``on_currents``, ``off_currents``, ``statuses``,
        optional ``yields``), in any order; missing chunks simply leave
        their slots at the UNKNOWN / NaN / ``"skipped"`` defaults.
    total:
        Total number of grid points.
    n_constraints:
        Number of constraint rows in ``margins`` (passed in, so a map whose
        every chunk was lost still has its full shape).

    Returns
    -------
    dict
        Flat arrays covering the whole grid (``margins`` is a list of
        per-constraint rows).
    """
    verdicts = np.full(total, UNKNOWN, dtype=np.int8)
    robustness = np.full(total, np.nan)
    margins = np.full((n_constraints, total), np.nan)
    on_currents = np.full(total, np.nan)
    off_currents = np.full(total, np.nan)
    statuses = ["skipped"] * total
    any_yields = any(chunk.get("yields") is not None for chunk in chunks)
    yields = np.full(total, np.nan) if any_yields else None
    for chunk in chunks:
        start = int(chunk["start"])
        count = len(chunk["verdicts"])
        stop = start + count
        verdicts[start:stop] = np.asarray(chunk["verdicts"], dtype=np.int8)
        robustness[start:stop] = np.asarray(chunk["robustness"], dtype=float)
        margins[:, start:stop] = np.asarray(chunk["margins"], dtype=float)
        on_currents[start:stop] = np.asarray(chunk["on_currents"],
                                             dtype=float)
        off_currents[start:stop] = np.asarray(chunk["off_currents"],
                                              dtype=float)
        statuses[start:stop] = [str(s) for s in chunk["statuses"]]
        if yields is not None and chunk.get("yields") is not None:
            yields[start:stop] = np.asarray(chunk["yields"], dtype=float)
    return {"verdicts": verdicts, "robustness": robustness,
            "margins": margins, "on_currents": on_currents,
            "off_currents": off_currents, "statuses": tuple(statuses),
            "yields": yields}


__all__ = [
    "FEASIBLE",
    "FeasibilityMap",
    "INFEASIBLE",
    "UNKNOWN",
    "VERDICT_NAMES",
    "merge_chunk_payloads",
]
