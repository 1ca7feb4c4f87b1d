"""The benchmark's workloads: inputs drawn from a seed, timed passes, checks.

Each workload builds every input (device draws, grid axes, tolerance
bands) from its seed, then runs *iterations*.  An iteration is one cold
pass, which starts from nothing reusable, followed by warm passes over the
same inputs, which may reuse what the cold pass left behind:

``design_scan``
    A 10⁴-point analytic :class:`~repro.design.DeviceScan` (gate C x
    junction C x temperature), a tolerance-Monte-Carlo scan, the
    ``design_margin_map`` scenario through
    :class:`~repro.scenarios.runner.ScenarioRunner`, and small-chunk
    :class:`~repro.resilience.CheckpointedSweep` runs (analytic, and master
    under a failure policy), all into a fresh result cache; the warm passes
    replay all of it from that cache.
``engine_sweeps``
    Policed 129-point Id-Vg sweeps of two seeded devices on ``master``,
    ``montecarlo-jit`` and ``ensemble-jit`` (R=16), plus one policed
    ``master`` ``Session.stream`` per device; the warm pass repeats every
    sweep on the already-bound sessions.  No cache, no design layer.

:meth:`run` times every step of one iteration (a scan, a sweep, a
scenario) and keeps its outputs; :meth:`check` verifies them afterwards,
outside the timing, and tallies attempted and failed operations (see
:class:`Tally`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.constants import E_CHARGE
from repro.design import DesignSpec, DeviceScan
from repro.design.feasibility import UNKNOWN, FeasibilityMap
from repro.devices import SETTransistor
from repro.engines import SweepAxes, SweepResult, get_engine
from repro.io.results import ResultCache
from repro.resilience import CheckpointedSweep, FailurePolicy
from repro.scenarios.runner import ScenarioRunner

#: The failure policy every policed sweep and scan runs under.
POLICY = FailurePolicy()

#: Constraint set of the design scans (the ``bench_design_scan`` set);
#: ``on_off_ratio`` forces two engine solves per point.
CONSTRAINTS = (
    {"type": "gain", "threshold": 1.0},
    {"type": "on_off_ratio", "threshold": 10.0},
    {"type": "max_temperature"},
)

#: Share of sweep points on which a Monte-Carlo engine must agree with the
#: master equation within 3 standard errors (plus a floor of 1% of the
#: sweep's peak current, for blockaded points whose error bar is zero).
MC_AGREEMENT_SHARE = 0.95


class Tally:
    """Attempted and failed operations of a run, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operations(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, passed: bool, what: str) -> None:
        """Count one correctness check."""
        self.operations(1, 0 if passed else 1, what)

    def statuses(self, statuses: Sequence[str], what: str) -> None:
        """Count per-point statuses; any status but ``ok`` fails."""
        self.operations(len(statuses),
                        sum(status != "ok" for status in statuses), what)


#: A timed step: ``(pass kind, step name)``; the kind is cold or warm.
Step = Tuple[str, str]


class Stopwatch:
    """Times the steps of one iteration."""

    def __init__(self) -> None:
        self.steps: List[Tuple[str, str, float]] = []
        self.started = time.perf_counter()

    def time(self, kind: str, step: str, function: Callable, *args,
             **kwargs):
        """Call ``function`` as step ``step`` of a ``kind`` pass."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        self.steps.append((kind, step, time.perf_counter() - start))
        return result

    def finish(self, warm_passes: int, rates: Dict[str, Tuple[int, tuple]],
               outputs: List[Any]) -> "Iteration":
        """The timed iteration, ending now."""
        return Iteration(steps=self.steps, warm_passes=warm_passes,
                         wall_s=time.perf_counter() - self.started,
                         rates=rates, outputs=outputs)


@dataclass
class Iteration:
    """Step timings and outputs of one iteration (cold plus warm passes).

    Parameters
    ----------
    steps:
        ``(pass kind, step name, seconds)`` of every timed step, in order.
    warm_passes:
        Warm passes in the iteration.
    wall_s:
        Wall time of the whole iteration.
    rates:
        Rate metrics: name -> ``(work units, steps that did the work)``.
    outputs:
        What the workload's ``check`` verifies, per pass.
    """

    steps: List[Tuple[str, str, float]]
    warm_passes: int
    wall_s: float
    rates: Dict[str, Tuple[int, Tuple[Step, ...]]]
    outputs: List[Any] = field(default_factory=list)


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    """``count`` shrunk by ``scale`` (the smoke test runs tiny sizes)."""
    return max(floor, int(round(count * scale)))


def _log_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """One draw, uniform in log space."""
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def _fresh_cache(scratch: Path) -> ResultCache:
    """A result cache in a new, empty directory under ``scratch``."""
    return ResultCache(tempfile.mkdtemp(prefix="cache-", dir=scratch))


# ======================================================================
# design_scan
# ======================================================================


def _without_counters(feasibility: FeasibilityMap) -> str:
    """``payload_json()`` with the run-dependent chunk counters zeroed."""
    return dataclasses.replace(feasibility, chunks_computed=0,
                               chunks_resumed=0).payload_json()


def _scan(spec: DesignSpec, cache: ResultCache,
          workers: int) -> Tuple[DeviceScan, FeasibilityMap]:
    """A policed device scan and its feasibility map."""
    scan = DeviceScan(spec, cache=cache, policy=POLICY)
    return scan, scan.run(workers=workers)


class DesignScan:
    """Design scans plus a checkpoint and scenario replay, cold then warm."""

    name = "design_scan"
    #: Warm passes (re-runs against the filled cache) per iteration.
    warm_passes = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        temperatures = np.linspace(rng.uniform(0.3, 0.8),
                                   rng.uniform(3.0, 5.0), 4)
        self.grid = DesignSpec.from_dict({
            "name": "perfbench_grid",
            "engine": "analytic",
            "axes": [
                {"parameter": "gate_capacitance",
                 "start": _log_uniform(rng, 4e-19, 6e-19),
                 "stop": _log_uniform(rng, 6e-18, 1e-17),
                 "points": _scaled(50, scale, 2), "spacing": "log"},
                {"parameter": "junction_capacitance",
                 "start": _log_uniform(rng, 1.5e-19, 2.5e-19),
                 "stop": _log_uniform(rng, 3e-18, 5e-18),
                 "points": 50, "spacing": "log"},
                {"parameter": "temperature",
                 "values": [float(t) for t in temperatures]},
            ],
            "constraints": list(CONSTRAINTS),
            "seed": int(rng.integers(1, 2**31)),
            "chunk_size": 512,
        })
        self.tolerance = DesignSpec.from_dict({
            "name": "perfbench_tolerance",
            "engine": "analytic",
            "axes": [
                {"parameter": "gate_capacitance",
                 "start": _log_uniform(rng, 7e-19, 9e-19),
                 "stop": _log_uniform(rng, 4e-18, 6e-18),
                 "points": 8, "spacing": "log"},
                {"parameter": "junction_capacitance",
                 "start": _log_uniform(rng, 4e-19, 6e-19),
                 "stop": _log_uniform(rng, 1.5e-18, 2.5e-18),
                 "points": _scaled(8, scale, 2), "spacing": "log"},
            ],
            "constraints": list(CONSTRAINTS),
            "seed": int(rng.integers(1, 2**31)),
            "tolerances": {
                "junction_capacitance": {
                    "kind": "tolerance", "tolerance": rng.uniform(0.1, 0.25)},
                "gate_capacitance": {
                    "kind": "tolerance", "tolerance": rng.uniform(0.1, 0.25),
                    "distribution": "normal"},
            },
            "tolerance_samples": 32,
            "chunk_size": 16,
        })
        self.replay = CacheReplay(rng, ("design_margin_map",), scale)

    def run(self, scratch: Path, *, workers: int = 1) -> Iteration:
        """One cold pass and :attr:`warm_passes` warm passes."""
        watch = Stopwatch()
        cache = _fresh_cache(scratch)
        outputs = []
        for warm in range(1 + self.warm_passes):
            kind = "warm" if warm else "cold"
            scans = [watch.time(kind, step, _scan, spec, cache, workers)
                     for step, spec in (("grid", self.grid),
                                        ("tolerance", self.tolerance))]
            outputs.append((scans, self.replay.run_pass(watch, kind, cache)))
        samples = len(self.tolerance) * self.tolerance.tolerance_samples
        return watch.finish(self.warm_passes, {
            "points_per_s": (len(self.grid), (("cold", "grid"),)),
            "design.yield_samples_per_s": (samples,
                                           (("cold", "tolerance"),)),
        }, outputs)

    def check(self, iteration: Iteration, tally: Tally) -> None:
        """Tally points, chunks and verdicts; warm output must equal cold."""
        self.replay.check([replay for _, replay in iteration.outputs], tally)
        cold_maps: Dict[str, FeasibilityMap] = {}
        for number, (scans, _) in enumerate(iteration.outputs):
            for scan, feasibility in scans:
                what = f"{scan.spec.name} {'warm' if number else 'cold'}"
                chunks = math.ceil(len(scan.spec) / scan.spec.chunk_size)
                tally.operations(chunks, scan.chunks_failed,
                                 f"{what}: lost chunks")
                tally.statuses(feasibility.statuses, f"{what}: statuses")
                tally.operations(
                    len(feasibility.verdicts),
                    int(np.count_nonzero(feasibility.verdicts == UNKNOWN)),
                    f"{what}: unknown verdicts")
                if not number:
                    cold_maps[scan.spec.name] = feasibility
                    tally.check(scan.chunks_computed == chunks,
                                f"{what}: computed every chunk")
                    continue
                tally.check(scan.chunks_resumed == chunks,
                            f"{what}: resumed every chunk")
                tally.check(_without_counters(feasibility)
                            == _without_counters(cold_maps[scan.spec.name]),
                            f"{what}: payload_json byte-identical to cold")


# ======================================================================
# engine_sweeps
# ======================================================================


@dataclass(frozen=True)
class SweepCase:
    """One seeded device with its operating point and sweep axis."""

    device: SETTransistor
    temperature: float
    axes: SweepAxes
    seed: int


class EngineSweeps:
    """Policed Id-Vg sweeps of seeded devices on three engines, cold then warm."""

    name = "engine_sweeps"
    #: Engines swept per device, with their bind options.
    engines = (("master", {}), ("montecarlo-jit", {}),
               ("ensemble-jit", {"replicas": 16}))
    #: Devices drawn per seed.
    devices = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        self.max_events = _scaled(2_000, scale, 200)
        self.warmup_events = _scaled(200, scale, 20)
        self.cases: List[SweepCase] = []
        for _ in range(self.devices):
            device = SETTransistor(
                junction_capacitance=_log_uniform(rng, 8e-19, 1.3e-18),
                gate_capacitance=_log_uniform(rng, 1.5e-18, 2.5e-18),
                junction_resistance=_log_uniform(rng, 7e5, 1.4e6))
            c_sigma = 2 * device.junction_capacitance \
                + device.gate_capacitance
            drain = rng.uniform(0.1, 0.25) * E_CHARGE / c_sigma
            axes = SweepAxes(np.linspace(0.0, 2.0 * device.gate_period, 129),
                             drain)
            self.cases.append(SweepCase(
                device=device, temperature=float(rng.uniform(1.0, 3.5)),
                axes=axes, seed=int(rng.integers(1, 2**31))))
        #: Cold-pass currents of the first iteration, per (case, engine):
        #: later iterations must reproduce them bit for bit.
        self._reference: Dict[tuple, np.ndarray] = {}

    def _bind(self, case: SweepCase) -> Dict[str, Any]:
        """Fresh sessions of every engine for one case."""
        return {name: get_engine(name).bind(
                    case.device, temperature=case.temperature,
                    seed=case.seed, max_events=self.max_events,
                    warmup_events=self.warmup_events, **options)
                for name, options in self.engines}

    def _pass(self, watch: Stopwatch, kind: str,
              sessions: Sequence[Dict[str, Any]]) -> List[Dict]:
        """Every policed sweep and the master stream of every case."""
        results = []
        for index, (case, bound) in enumerate(zip(self.cases, sessions)):
            outcome = {name: watch.time(kind, f"{index}/{name}",
                                        session.sweep, case.axes,
                                        policy=POLICY)
                       for name, session in bound.items()}
            records: list = []
            outcome["stream"] = (watch.time(
                kind, f"{index}/stream", _stream, bound["master"],
                case.axes, records), records)
            results.append(outcome)
        return results

    def run(self, scratch: Path, *, workers: int = 1) -> Iteration:
        """Cold pass on fresh sessions, warm pass on the same sessions."""
        watch = Stopwatch()
        sessions = [watch.time("cold", f"{index}/bind", self._bind, case)
                    for index, case in enumerate(self.cases)]
        cold = self._pass(watch, "cold", sessions)
        warm = self._pass(watch, "warm", sessions)
        points = 2 * sum((len(self.engines) + 1) * len(case.axes)
                         for case in self.cases)
        every_step = tuple((kind, step) for kind, step, _ in watch.steps)
        return watch.finish(1, {"points_per_s": (points, every_step)},
                            [cold, warm])

    def check(self, iteration: Iteration, tally: Tally) -> None:
        """All-ok statuses, path and engine agreement, seeded reproduction."""
        cold, warm = iteration.outputs
        for number, outcomes in enumerate((cold, warm)):
            for index, outcome in enumerate(outcomes):
                what = f"device {index} {'warm' if number else 'cold'}"
                master = outcome["master"]
                for name, _ in self.engines:
                    tally.statuses([r.status for r in outcome[name].statuses],
                                   f"{what} {name} statuses")
                currents, records = outcome["stream"]
                tally.statuses([r.status for r in records],
                               f"{what} master stream statuses")
                tally.check(np.allclose(currents, master.currents,
                                        rtol=1e-9, atol=0.0),
                            f"{what}: master stream equals master sweep")
                for name in ("montecarlo-jit", "ensemble-jit"):
                    tally.check(_agreement(outcome[name], master)
                                >= MC_AGREEMENT_SHARE,
                                f"{what}: {name} within 3 sigma of master")
                if number:
                    tally.check(np.array_equal(
                        master.currents, cold[index]["master"].currents),
                        f"{what}: master equals the cold pass")
                    continue
                for name, _ in self.engines:
                    current = outcome[name].currents
                    expected = self._reference.setdefault((index, name),
                                                          current)
                    tally.check(np.array_equal(expected, current),
                                f"{what}: {name} reproduces bit for bit")


def _stream(session, axes: SweepAxes, records: list) -> np.ndarray:
    """Currents of a policed stream; status records go to ``records``."""
    return np.asarray([observed.current for _, observed in session.stream(
        axes, policy=POLICY, on_status=records.append)])


def _agreement(stochastic: SweepResult, exact: SweepResult) -> float:
    """Share of points where a Monte-Carlo sweep agrees with the master one."""
    floor = 0.01 * float(np.max(np.abs(exact.currents)))
    difference = np.abs(stochastic.currents - exact.currents)
    within = difference <= 3.0 * stochastic.stderrs + floor
    return float(np.mean(within))


# ======================================================================
# checkpoint and scenario replay (part of design_scan's passes)
# ======================================================================


class CacheReplay:
    """Scenarios plus small-chunk checkpointed sweeps against one cache.

    Parameters
    ----------
    rng:
        Draws the sweeps' devices, biases, temperatures and seeds.
    scenarios:
        Registered scenario names run through a
        :class:`~repro.scenarios.runner.ScenarioRunner` each pass.
    scale:
        Shrinks the sweeps (smoke tests).
    """

    chunk_size = 16

    def __init__(self, rng: np.random.Generator, scenarios: Sequence[str],
                 scale: float = 1.0) -> None:
        self.scenarios = tuple(scenarios)
        self.sweeps: List[Dict[str, Any]] = []
        for engine, points, periods, policy in (
                ("analytic", 1_024, 4.0, None), ("master", 128, 1.0, POLICY)):
            device = SETTransistor(
                junction_capacitance=_log_uniform(rng, 8e-19, 1.3e-18),
                gate_capacitance=_log_uniform(rng, 1.5e-18, 2.5e-18))
            axes = SweepAxes(
                np.linspace(0.0, periods * device.gate_period,
                            _scaled(points, scale, 2 * self.chunk_size)),
                rng.uniform(1e-3, 4e-3))
            self.sweeps.append(dict(
                engine=engine, device=device, axes=axes,
                temperature=float(rng.uniform(1.0, 3.5)),
                seed=int(rng.integers(1, 2**31)), policy=policy))

    def run_pass(self, watch: Stopwatch, kind: str,
                 cache: ResultCache) -> tuple:
        """Every scenario, then every checkpointed sweep."""
        runner = ScenarioRunner(cache=cache)
        scenarios = [watch.time(kind, name, runner.run, name)
                     for name in self.scenarios]
        sweeps = []
        for index, options in enumerate(self.sweeps):
            sweep = CheckpointedSweep(cache=cache,
                                      chunk_size=self.chunk_size, **options)
            sweeps.append((sweep, watch.time(kind, f"checkpoint/{index}",
                                             sweep.run)))
        return scenarios, sweeps

    def check(self, passes: Sequence[tuple], tally: Tally) -> None:
        """Cache misses then hits, identical payloads, every chunk served."""
        cold_scenarios, cold_sweeps = passes[0]
        for number, (scenarios, sweeps) in enumerate(passes):
            what = f"warm {number}" if number else "cold"
            expected = "hit" if number else "miss"
            for name, result, first in zip(self.scenarios, scenarios,
                                           cold_scenarios):
                tally.check(result.meta.get("cache") == expected,
                            f"{what} {name}: cache {expected}")
                tally.check(_canonical(result) == _canonical(first),
                            f"{what} {name}: payload equals the cold one")
            for (sweep, result), (_, first) in zip(sweeps, cold_sweeps):
                label = f"{what} {sweep.engine.name} checkpoint"
                chunks = math.ceil(len(sweep.axes) / sweep.chunk_size)
                served = sweep.chunks_resumed if number \
                    else sweep.chunks_computed
                tally.operations(chunks, chunks - served, f"{label} chunks")
                if result.statuses is not None:
                    tally.statuses([r.status for r in result.statuses],
                                   f"{label} statuses")
                tally.check(_same_sweep(result, first),
                            f"{label}: bit-identical to the cold pass")


def _canonical(result) -> str:
    """A scenario result's payload as canonical JSON."""
    return json.dumps(result.payload_dict(), sort_keys=True)


def _same_sweep(one: SweepResult, other: SweepResult) -> bool:
    """Bit-identical currents, error bars and statuses."""
    if not np.array_equal(one.currents, other.currents):
        return False
    if (one.stderrs is None) != (other.stderrs is None):
        return False
    if one.stderrs is not None and not np.array_equal(
            one.stderrs, other.stderrs, equal_nan=True):
        return False
    return one.statuses == other.statuses


#: Workload classes by name.
WORKLOADS = {workload.name: workload
             for workload in (DesignScan, EngineSweeps)}


def build(name: str, seed: int, scale: float = 1.0):
    """The named workload with its inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, scale)


__all__ = ["Iteration", "Tally", "WORKLOADS", "build"]
