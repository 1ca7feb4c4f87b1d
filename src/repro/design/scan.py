"""Device scans: checkpointed feasibility classification over design grids.

A :class:`DeviceScan` executes one :class:`~repro.design.spec.DesignSpec`:
it walks the Cartesian device/environment grid in row-major order, solves
the on/off operating points of every device through any registered
engine, classifies each point against the spec's constraint set, and (when
the spec declares component tolerances) estimates the per-point
Monte-Carlo yield.  The result is a
:class:`~repro.design.feasibility.FeasibilityMap`.

Each chunk is evaluated as one batch: its grid points become the rows of a
:class:`~repro.engines.base.DeviceTable` (built with ``numpy.divmod`` over
the axis strides), one :meth:`~repro.engines.base.Engine.solve_devices`
call solves every on/off bias — a single array evaluation on the analytic
engine, the per-device ``bind`` + ``solve`` loop elsewhere — and the
constraints classify the whole chunk in one array pass.  Tolerance Monte
Carlo batches points x samples the same way, from standard variates drawn
once per scan.

Execution discipline mirrors the resilience layer:

* the grid is sharded into fixed-size **chunks**, keyed by a content hash
  of everything that determines their numbers and run by
  :func:`~repro.resilience.chunks.run_chunks` — a killed scan resumes
  bit-identically, identical chunks across scans dedup, and a chunk lost
  under a policy leaves a *partial* map that a re-run completes;
* per-point failures **degrade** under an optional
  :class:`~repro.resilience.policy.FailurePolicy` (unknown verdict, NaN
  margins, ``failed`` status) instead of aborting the scan, and points
  solved through a fallback rung report a ``degraded`` status;
* stochastic engines get SHA-256-derived per-point seeds
  (:func:`~repro.io.results.derive_seed` of the root seed, ``"design-point"``
  and the flat index) and the tolerance model draws from
  per-element seed streams — both independent of iteration order and
  worker count, so any execution schedule produces the same map.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..engines.base import DeviceTable, Engine
from ..engines.registry import select_engine
from ..errors import ValidationError
from ..io.results import ResultCache, column_length, content_hash, \
    derive_seed
from ..resilience.chunks import ChunkCounts, run_chunks
from ..resilience.events import capture_degradations
from ..resilience.faults import inject
from ..resilience.policy import FailurePolicy
from .constraints import Constraint, DesignPoint, build_constraints
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityMap,
    merge_chunk_payloads,
)
from .spec import DesignSpec
from .tolerance import ToleranceModel

_LOG = logging.getLogger("repro.design")


@dataclass(frozen=True)
class DesignChunk:
    """One content-addressed unit of a design scan.

    Parameters
    ----------
    index:
        Chunk ordinal (0-based).
    start:
        Flat grid index of the chunk's first point.
    count:
        Number of grid points in the chunk.
    key:
        Cache key the chunk's payload is stored under (empty when the scan
        runs without a cache).
    """

    index: int
    start: int
    count: int
    key: str


#: Devices per engine call — bounds the memory of the array temporaries
#: on large chunks and of tolerance MC's points x samples tables.
_BATCH_ROWS = 1 << 16


@dataclass
class _Outcome:
    """Per-row results of one evaluated batch of grid points.

    ``errors`` maps row -> the exception that row's evaluation raised (its
    device could not be built, or its engine solve failed); the array
    slots of such rows hold whatever the batch computed and are only
    meaningful once the row is cleared or re-evaluated.  ``degraded``
    flags rows whose numbers came through a fallback rung (a degradation
    event was emitted while the batch was evaluated).
    """

    verdicts: np.ndarray
    robustness: np.ndarray
    margins: np.ndarray
    on_currents: np.ndarray
    off_currents: np.ndarray
    yields: Optional[np.ndarray]
    errors: Dict[int, Exception]
    degraded: np.ndarray

    def clear(self, row: int) -> None:
        """Turn one row into a failed/skipped slot (unknown, NaN)."""
        self.verdicts[row] = UNKNOWN
        for values in (self.robustness, self.on_currents,
                       self.off_currents, self.yields):
            if values is not None:
                values[row] = math.nan
        self.margins[:, row] = math.nan

    def adopt(self, row: int, single: "_Outcome") -> None:
        """Replace one row with the single-row outcome of a re-evaluation."""
        self.verdicts[row] = single.verdicts[0]
        self.margins[:, row] = single.margins[:, 0]
        for mine, theirs in ((self.robustness, single.robustness),
                             (self.on_currents, single.on_currents),
                             (self.off_currents, single.off_currents),
                             (self.yields, single.yields)):
            if mine is not None and theirs is not None:
                mine[row] = theirs[0]
        self.degraded[row] = single.degraded[0]
        self.errors.pop(row, None)
        if 0 in single.errors:
            self.errors[row] = single.errors[0]


class _ChunkEvaluator:
    """Evaluates batches of grid points of one spec against one engine.

    Precomputes everything loop-invariant — axis grids and strides, the
    constraint set, the tolerance model and its standard variates,
    capability flags — so one batch costs one device-table construction,
    one :meth:`~repro.engines.base.Engine.solve_devices` call for the
    on/off biases, and one array pass per constraint.
    """

    def __init__(self, spec: DesignSpec, engine: Engine) -> None:
        self.spec = spec
        self.engine = engine
        self.constraints: Tuple[Constraint, ...] = \
            build_constraints(spec.constraints)
        self.hard = tuple(c for c in self.constraints if c.kind == "hard")
        self.is_hard = np.array([c.kind == "hard" for c in self.constraints],
                                dtype=bool)
        self.needs_currents = any(c.requires_currents
                                  for c in self.constraints)
        self.yield_needs_currents = any(c.requires_currents
                                        for c in self.hard)
        capabilities = engine.capabilities()
        self.stochastic = capabilities.stochastic
        self.tolerance = ToleranceModel.from_dict(spec.tolerances)
        self.base = spec.base_device()
        self.grids = [axis.grid() for axis in spec.axes]
        self.parameters = [axis.parameter for axis in spec.axes]
        # Row-major strides: first axis varies slowest.
        self.strides: List[int] = []
        stride = 1
        for grid in reversed(self.grids):
            self.strides.insert(0, stride)
            stride *= len(grid)
        self.gate_fractions = np.array([spec.on_gate_fraction,
                                        spec.off_gate_fraction])
        budget = spec.budget
        self.budget = {"max_events": budget.max_events,
                       "warmup_events": budget.warmup_events,
                       "replicas": budget.replicas}

    # ------------------------------------------------------------- geometry

    def inputs(self, flat: np.ndarray) -> Tuple[DeviceTable, np.ndarray]:
        """The device table and drain voltages of a batch of flat indices."""
        columns: Dict[str, np.ndarray] = {}
        temperature = np.full(len(flat), float(self.spec.temperature))
        drains = np.full(len(flat), float(self.spec.drain_voltage))
        background = None
        remainder = flat
        for parameter, grid, stride in zip(self.parameters, self.grids,
                                           self.strides):
            position, remainder = np.divmod(remainder, stride)
            values = grid[position]
            if parameter == "temperature":
                temperature = values
            elif parameter == "drain_voltage":
                drains = values
            elif parameter == "background_charge_e":
                background = values * E_CHARGE
            else:
                columns[parameter] = values
        seeds = None
        if self.stochastic:
            seeds = np.array([derive_seed(self.spec.seed, "design-point",
                                          int(index))
                              for index in flat], dtype=np.int64)
        return DeviceTable(self.base, columns, temperature, background,
                           seeds), drains

    # ------------------------------------------------------------ evaluation

    def solve(self, table: DeviceTable, drains: np.ndarray, rows: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, Dict[int, Exception]]:
        """On/off drain currents of ``rows`` (NaN elsewhere), plus failures.

        One :meth:`~repro.engines.base.Engine.solve_devices` call covers
        each block of up to ``_BATCH_ROWS`` rows; if it raises, each row of
        the block is solved on its own so only the failing rows degrade
        (NaN currents, their exception recorded).
        """
        currents = np.full((len(table), 2), math.nan)
        errors: Dict[int, Exception] = {}
        for first in range(0, len(rows), _BATCH_ROWS):
            block = rows[first:first + _BATCH_ROWS]
            batch = table.take(block)
            gates = self.gate_fractions * batch.gate_period[:, None]
            try:
                currents[block] = self.engine.solve_devices(
                    batch, gates, drains[block, None], **self.budget)
            except Exception as error:  # noqa: BLE001 - isolate failing rows
                if len(block) == 1:
                    errors[int(block[0])] = error
                    continue
                for position, row in enumerate(block):
                    try:
                        currents[row] = self.engine.solve_devices(
                            batch.take([position]),
                            gates[position:position + 1],
                            drains[row], **self.budget)[0]
                    except Exception as row_error:  # noqa: BLE001
                        errors[int(row)] = row_error
        return currents[:, 0], currents[:, 1], errors

    def classify(self, table: DeviceTable, drains: np.ndarray,
                 on: np.ndarray, off: np.ndarray,
                 constraints: Sequence[Constraint]
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Margins and satisfaction of ``constraints``, one row each."""
        point = DesignPoint(device=table, temperature=table.temperature,
                            drain_voltage=drains, on_current=on,
                            off_current=off)
        margins = np.empty((len(constraints), len(table)))
        satisfied = np.empty((len(constraints), len(table)), dtype=bool)
        for row, constraint in enumerate(constraints):
            _, margins[row], satisfied[row] = constraint.assess(point)
        return margins, satisfied

    def verdicts(self, margins: np.ndarray, satisfied: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Verdict codes and robustness margins from the constraint rows."""
        hard_margins = margins[self.is_hard]
        finite = np.isfinite(hard_margins)
        infeasible = np.any(~satisfied[self.is_hard] & finite, axis=0)
        unknown = ~infeasible & np.any(~finite, axis=0)
        codes = np.where(infeasible, INFEASIBLE,
                         np.where(unknown, UNKNOWN, FEASIBLE))
        lowest = np.min(np.where(finite, hard_margins, np.inf), axis=0,
                        initial=np.inf)
        robustness = np.where(unknown | ~np.any(finite, axis=0), math.nan,
                              lowest)
        return codes.astype(np.int8), robustness

    def evaluate(self, flat: np.ndarray) -> _Outcome:
        """Fully evaluate a batch of grid points (constraints + yields).

        A batched solve cannot attribute a degradation event to one row,
        so any event emitted while the batch is solved marks every row of
        the batch degraded.
        """
        table, drains = self.inputs(flat)
        rejected = table.rejected()
        errors: Dict[int, Exception] = {}
        for row in np.flatnonzero(rejected):
            try:
                table.device(int(row))
            except Exception as error:  # noqa: BLE001 - reported per point
                errors[int(row)] = error
        on, off = np.full((2, len(table)), math.nan)
        with capture_degradations() as events:
            if self.needs_currents:
                on, off, failed = self.solve(table, drains,
                                             np.flatnonzero(~rejected))
                errors.update(failed)
            margins, satisfied = self.classify(table, drains, on, off,
                                               self.constraints)
            verdicts, robustness = self.verdicts(margins, satisfied)
            yields = None
            if self.tolerance:
                counts = self.feasible_samples(table, drains)
                yields = counts / self.spec.tolerance_samples
        return _Outcome(verdicts=verdicts, robustness=robustness,
                        margins=margins, on_currents=on, off_currents=off,
                        yields=yields, errors=errors,
                        degraded=np.full(len(table), bool(events)))

    # ------------------------------------------------------------ tolerance

    @functools.cached_property
    def draws(self) -> Dict[str, np.ndarray]:
        """Each toleranced element's standard variates (drawn once)."""
        return self.tolerance.draws(self.spec.seed,
                                    self.spec.tolerance_samples)

    def feasible(self, table: DeviceTable, drains: np.ndarray,
                 buildable: np.ndarray) -> np.ndarray:
        """Which rows satisfy every hard constraint.

        Unbuildable rows, and rows whose engine solve fails, are
        infeasible — a deviated device that cannot exist is a failed
        sample, not a scan abort.
        """
        feasible = buildable.copy()
        on, off = np.full((2, len(table)), math.nan)
        if self.yield_needs_currents and feasible.any():
            on, off, failed = self.solve(table, drains,
                                         np.flatnonzero(feasible))
            feasible[list(failed)] = False
        _, satisfied = self.classify(table, drains, on, off, self.hard)
        return feasible & np.all(satisfied, axis=0)

    def feasible_samples(self, table: DeviceTable,
                         drains: np.ndarray) -> np.ndarray:
        """Tolerance-MC feasible-sample counts, one per row.

        Every row's samples deviate its device through the spec's
        tolerance model with common random numbers (sample ``i`` of every
        row uses the same standard variates, so neighbouring points see
        the same component lot) and re-check the hard constraints, as one
        points x samples table at a time.
        """
        samples = self.spec.tolerance_samples
        counts = np.zeros(len(table), dtype=np.int64)
        block = max(1, _BATCH_ROWS // samples)
        for first in range(0, len(table), block):
            rows = np.arange(first, min(first + block, len(table)))
            lot = table.take(np.repeat(rows, samples))
            columns = dict(lot.columns)
            buildable = np.ones(len(lot), dtype=bool)
            for element, standard in self.draws.items():
                if element not in columns \
                        and getattr(self.base, element) is None:
                    # sample_device refuses to deviate an unset optional.
                    buildable[:] = False
                    continue
                nominal = lot.column(element).reshape(len(rows), samples)
                columns[element] = self.tolerance.deviations[element] \
                    .deviate(nominal, standard).ravel()
            lot = dataclasses.replace(lot, columns=columns)
            feasible = self.feasible(lot, np.repeat(drains[rows], samples),
                                     buildable & ~lot.rejected())
            counts[rows] = feasible.reshape(len(rows), samples).sum(axis=1)
        return counts


class DeviceScan(ChunkCounts):
    """A checkpointed, policy-aware feasibility scan of one design spec.

    Parameters
    ----------
    spec:
        The design spec to execute.
    cache:
        Optional :class:`~repro.io.results.ResultCache` for chunk
        checkpoints; ``None`` disables persistence (no resume, no dedup).
    policy:
        Optional :class:`~repro.resilience.policy.FailurePolicy`.  With a
        policy, point failures retry up to ``max_retries`` times and then
        degrade to an ``unknown`` verdict; at most ``max_failures``
        degraded points are tolerated per chunk before the chunk's
        remaining points are marked ``skipped``; a chunk-level crash marks
        the whole chunk ``skipped`` (and uncached) instead of aborting.
        Without a policy, the first failure propagates — but completed
        chunks stay persisted, so a re-run resumes.
    """

    def __init__(self, spec: DesignSpec, *,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[FailurePolicy] = None) -> None:
        self.spec = spec
        self.cache = cache
        self.policy = policy
        # ``auto``: device grids want closed-form throughput, not per-point
        # statistics, and a verdict tolerates approximate physics.
        self.engine = select_engine(spec.engine, approximate=True)
        self._evaluator = _ChunkEvaluator(spec, self.engine)

    def __reduce__(self) -> Tuple[Any, Tuple[DesignSpec]]:
        """Pickle as ``(spec, policy)``: pool workers compute, never cache."""
        return functools.partial(DeviceScan, policy=self.policy), (self.spec,)

    # ------------------------------------------------------------- identity

    def _chunk_context(self, start: int, count: int) -> Dict[str, Any]:
        """Everything that determines one chunk's numbers, JSON-able."""
        return {
            "kind": "design-chunk",
            "spec": self.spec.to_dict(),
            "engine": self.engine.name,
            "start": start,
            "count": count,
            "policy": None if self.policy is None
            else self.policy.as_dict(),
        }

    def chunk_plan(self) -> List[DesignChunk]:
        """The scan's chunks, in order, with their cache keys."""
        total = len(self.spec)
        chunks: List[DesignChunk] = []
        for ordinal, start in enumerate(range(0, total,
                                              self.spec.chunk_size)):
            count = min(self.spec.chunk_size, total - start)
            key = ""
            if self.cache is not None:
                key = self.cache.key_for(
                    content_hash(self._chunk_context(start, count)))
            chunks.append(DesignChunk(index=ordinal, start=start,
                                      count=count, key=key))
        return chunks

    # ------------------------------------------------------------ execution

    def _compute_chunk(self, chunk: DesignChunk) -> Dict[str, Any]:
        """Evaluate one chunk's points and assemble its payload.

        The whole chunk is evaluated as one batch first; the per-point
        policy walk then fires the ``design.point`` fault site once per
        point in flat-index order and applies retries, ``max_failures`` and
        skips exactly as a point-by-point evaluation would, re-evaluating
        a failed point on its own when it is retried.
        """
        inject("design.chunk")
        evaluator = self._evaluator
        policy = self.policy
        start, count = chunk.start, chunk.count
        outcome = evaluator.evaluate(np.arange(start, start + count))
        attempts = 1 if policy is None else 1 + policy.max_retries
        statuses: List[str] = []
        failures = 0
        for row in range(count):
            if policy is not None and policy.max_failures is not None \
                    and failures > policy.max_failures:
                outcome.clear(row)
                statuses.append("skipped")
                continue
            for attempt in range(attempts):
                try:
                    inject("design.point")
                    if attempt and row in outcome.errors:
                        outcome.adopt(row, evaluator.evaluate(
                            np.array([start + row])))
                    if row in outcome.errors:
                        raise outcome.errors[row]
                    break
                except Exception as error:  # noqa: BLE001 - policy run
                    if policy is None:
                        raise
                    _LOG.debug("design point %d attempt %d failed: %r",
                               start + row, attempt + 1, error)
            else:
                failures += 1
                outcome.clear(row)
                statuses.append("failed")
                continue
            statuses.append("degraded" if outcome.degraded[row] else "ok")
        payload: Dict[str, Any] = {
            "engine": self.engine.name,
            "start": start,
            "verdicts": outcome.verdicts,
            "robustness": outcome.robustness,
            "margins": outcome.margins,
            "on_currents": outcome.on_currents,
            "off_currents": outcome.off_currents,
            "statuses": statuses,
        }
        if outcome.yields is not None:
            payload["yields"] = outcome.yields
        return payload

    def _valid_payload(self, chunk: DesignChunk,
                       payload: Mapping[str, Any]) -> bool:
        """Whether a cached payload is shaped like this chunk's result."""
        return column_length(payload.get("verdicts")) == chunk.count \
            and column_length(payload.get("margins")) \
            == len(self._evaluator.constraints) \
            and payload.get("engine") == self.engine.name

    def run(self, *, workers: int = 1) -> FeasibilityMap:
        """Run (or resume) the scan and return its feasibility map.

        Parameters
        ----------
        workers:
            Worker processes for chunk fan-out (``1`` = in-process).  The
            map is identical for any worker count: every chunk is a pure
            function of ``(spec, start, count)``.

        Returns
        -------
        FeasibilityMap
            The merged map; bit-identical whether or not the run resumed
            from checkpoints, and partial (``unknown`` verdicts,
            ``skipped`` statuses) when chunks were lost under the policy.
        """
        payloads = run_chunks(self.chunk_plan(), self._compute_chunk,
                              self._valid_payload, cache=self.cache,
                              policy=self.policy, workers=workers,
                              counts=self)
        constraints = self._evaluator.constraints
        merged = merge_chunk_payloads(
            [payload for payload in payloads if payload is not None],
            len(self.spec), len(constraints))
        return FeasibilityMap(
            spec_hash=self.spec.content_hash(), engine=self.engine.name,
            axes=tuple((axis.parameter, tuple(axis.grid().tolist()))
                       for axis in self.spec.axes),
            constraints=tuple(
                {"name": c.type_name, "kind": c.kind,
                 "threshold": c.threshold} for c in constraints),
            chunks_computed=self.chunks_computed,
            chunks_resumed=self.chunks_resumed, **merged)


@dataclass(frozen=True)
class YieldReport:
    """Tolerance analysis of one design point: sampled yield plus corners.

    Parameters
    ----------
    point:
        The swept parameter values of the analysed grid point.
    samples:
        Monte-Carlo sample count.
    feasible_samples:
        Samples satisfying every hard constraint.
    yield_fraction:
        ``feasible_samples / samples``.
    corners:
        One entry per worst-case corner: the element assignment and
        whether the corner device stayed feasible.
    worst_case_feasible:
        Whether *every* corner stayed feasible (the classic worst-case
        pass/fail; stricter than any sampled yield).
    """

    point: Mapping[str, float]
    samples: int
    feasible_samples: int
    yield_fraction: float
    corners: Tuple[Mapping[str, Any], ...]
    worst_case_feasible: bool

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload of the report."""
        return {"point": dict(self.point), "samples": self.samples,
                "feasible_samples": self.feasible_samples,
                "yield_fraction": self.yield_fraction,
                "corners": [dict(c) for c in self.corners],
                "worst_case_feasible": self.worst_case_feasible}


def analyze_yield(spec: DesignSpec, flat_index: int = 0) -> YieldReport:
    """Full tolerance analysis of one grid point of a design spec.

    Parameters
    ----------
    spec:
        The design spec (must declare tolerances).
    flat_index:
        Row-major grid index of the point to analyse.

    Returns
    -------
    YieldReport
        Seeded Monte-Carlo yield plus the worst-case corner sweep.
    """
    evaluator = _ChunkEvaluator(
        spec, select_engine(spec.engine, approximate=True))
    if not evaluator.tolerance:
        raise ValidationError(
            "yield analysis needs a spec with component tolerances")
    point, drains = evaluator.inputs(np.array([flat_index]))
    feasible = int(evaluator.feasible_samples(point, drains)[0])
    assignments = [assignment for assignment, _ in
                   evaluator.tolerance.corner_devices(point.device(0))]
    corners: List[Dict[str, Any]] = []
    if assignments:
        rows = np.zeros(len(assignments), dtype=int)
        corner_table = point.take(rows)
        corner_table = dataclasses.replace(corner_table, columns={
            **corner_table.columns,
            **{name: [a[name] for a in assignments]
               for name in assignments[0]}})
        corner_ok = evaluator.feasible(corner_table, drains[rows],
                                       ~corner_table.rejected())
        corners = [{"assignment": dict(assignment), "feasible": bool(ok)}
                   for assignment, ok in zip(assignments, corner_ok)]
    return YieldReport(
        point=spec.point_parameters(flat_index),
        samples=spec.tolerance_samples, feasible_samples=feasible,
        yield_fraction=feasible / spec.tolerance_samples,
        corners=tuple(corners),
        worst_case_feasible=all(c["feasible"] for c in corners))


__all__ = [
    "DesignChunk",
    "DeviceScan",
    "YieldReport",
    "analyze_yield",
]
