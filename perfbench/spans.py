"""Layer spans for the traced benchmark run.

The benchmark attributes wall time to the layers of ``repro`` without
touching the package: :func:`install_layer_spans` wraps public entry points
of each subpackage (``compact``, ``master``, ``montecarlo``, ``engines``,
``resilience``, ``design``, ``io``, ``scenarios``) from outside, and a
:class:`Tracer` aggregates every call into a call count and a *self time* —
the span's duration minus the time its child spans cover.  Because every
span's time is charged exactly once (to itself or to its parent), the self
times of one timed phase plus the ``other`` residual add up to its wall
time, which is what :func:`layer_breakdown` reports.

Spans are aggregated in memory (per name: calls, self seconds, counters)
rather than logged one by one, so a design scan's 10⁵ spans stay cheap.
Spans from worker processes are not collected, which is why the traced
design scan runs in-process.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``after(result, args, kwargs, tracer)`` hook run outside a span's timing.
After = Callable[[Any, tuple, dict, "Tracer"], None]


class Tracer:
    """Aggregating span collector: calls, self time and counters per name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        # One child-time accumulator per open span.
        self._open: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ snapshots

    def take(self) -> Dict[str, Dict[str, float]]:
        """Return the aggregates collected so far and start afresh."""
        snapshot = {"calls": dict(self.calls), "self_s": dict(self.self_s),
                    "counters": dict(self.counters)}
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        return snapshot

    # ---------------------------------------------------------------- spans

    def span(self, name: str, function: Callable,
             after: Optional[After] = None) -> Callable:
        """Wrap ``function`` so each call is one span called ``name``."""
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(result, args, kwargs, self)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def stream_span(self, name: str, function: Callable) -> Callable:
        """Wrap a generator function: one call, timed across every step.

        Only the time spent producing items counts; the consumer's work
        between items is not part of the span.
        """
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs) -> Iterator:
            iterator = function(*args, **kwargs)
            calls[name] += 1
            while True:
                open_spans.append(0.0)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    self_s[name] += elapsed - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += elapsed
                yield item

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------- patching

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Replace ``owner.attribute`` until :meth:`restore`."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_methods(self, name: str, base: type, attribute: str, *,
                      after: Optional[After] = None,
                      stream: bool = False) -> None:
        """Span ``attribute`` on ``base`` and every subclass defining it."""
        for cls in _class_tree(base):
            if attribute in cls.__dict__:
                function = cls.__dict__[attribute]
                wrapped = self.stream_span(name, function) if stream \
                    else self.span(name, function, after)
                self.patch(cls, attribute, wrapped)

    def patch_function(self, name: str, function: Callable, *,
                       stream: bool = False) -> None:
        """Span a module-level function in every ``repro`` module holding it."""
        wrapped = self.stream_span(name, function) if stream \
            else self.span(name, function)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self.patch(module, attribute, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _class_tree(base: type) -> List[type]:
    """``base`` and all its subclasses, depth first."""
    classes = [base]
    for subclass in base.__subclasses__():
        classes.extend(_class_tree(subclass))
    return classes


def _file_bytes(path: Optional[Path]) -> int:
    """Size of an artifact file, 0 when it is absent."""
    try:
        return path.stat().st_size if path is not None else 0
    except OSError:
        return 0


def _after_store(result, args, kwargs, tracer: Tracer) -> None:
    """Count the bytes a cache store wrote."""
    tracer.counters["io.cache_store.bytes"] += _file_bytes(result)


def _after_load(result, args, kwargs, tracer: Tracer) -> None:
    """Count cache hits and the bytes they read."""
    if result is not None:
        cache, key = args[0], args[1]
        tracer.counters["io.cache_load.hits"] += 1
        tracer.counters["io.cache_load.bytes"] += _file_bytes(
            cache.path_for(key))


def _after_chunked(prefix: str) -> After:
    """Add a chunked run's computed/resumed chunk counts to the counters."""
    def after(result, args, kwargs, tracer: Tracer) -> None:
        runner = args[0]
        tracer.counters[f"{prefix}.chunks_computed"] += runner.chunks_computed
        tracer.counters[f"{prefix}.chunks_resumed"] += runner.chunks_resumed
    return after


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer with ``tracer`` spans.

    Call after every ``repro`` module the workload uses is imported: a
    module-level function imported by name later would keep its unwrapped
    reference.
    """
    from repro.compact.set_model import AnalyticSETModel
    from repro.design.constraints import Constraint
    from repro.design.scan import DeviceScan
    from repro.design.tolerance import ToleranceModel
    from repro.engines import Engine, Session, list_engines
    from repro.io import results
    from repro.master.steadystate import MasterEquationSolver
    from repro.montecarlo.simulator import MonteCarloSimulator
    from repro.resilience import execution
    from repro.resilience.checkpoint import CheckpointedSweep
    from repro.scenarios.runner import ScenarioRunner

    list_engines()  # load the built-in adapters before walking subclasses
    methods = [
        ("compact.drain_current", AnalyticSETModel, "drain_current"),
        ("compact.drain_current_map", AnalyticSETModel, "drain_current_map"),
        ("engines.bind", Engine, "bind"),
        ("engines.solve", Session, "solve"),
        ("engines.sweep", Session, "sweep"),
        ("master.solve", MasterEquationSolver, "solve"),
        ("master.sweep", MasterEquationSolver, "sweep_source"),
        ("montecarlo.stationary", MonteCarloSimulator, "stationary_current"),
        ("montecarlo.sweep", MonteCarloSimulator, "sweep_source"),
        ("design.constraint_evaluate", Constraint, "evaluate"),
        ("design.tolerance_sample", ToleranceModel, "sample_device"),
    ]
    for name, owner, attribute in methods:
        tracer.patch_methods(name, owner, attribute)
    tracer.patch_methods("engines.stream", Session, "stream", stream=True)
    tracer.patch_methods("design.scan", DeviceScan, "run",
                         after=_after_chunked("design"))
    tracer.patch_methods("resilience.checkpoint", CheckpointedSweep, "run",
                         after=_after_chunked("resilience.checkpoint"))
    tracer.patch_methods("io.cache_store", results.ResultCache, "store",
                         after=_after_store)
    tracer.patch_methods("io.cache_load", results.ResultCache, "load",
                         after=_after_load)
    tracer.patch_methods("scenarios.run", ScenarioRunner, "run")
    tracer.patch_function("io.content_hash", results.content_hash)
    tracer.patch_function("resilience.policy_sweep",
                          execution.run_policy_sweep)
    tracer.patch_function("resilience.policy_stream",
                          execution.stream_with_policy, stream=True)


#: Span names reported by the traced run, in table order.
SPANS = (
    "compact.drain_current", "compact.drain_current_map",
    "master.solve", "master.sweep",
    "montecarlo.stationary", "montecarlo.sweep",
    "engines.bind", "engines.solve", "engines.sweep", "engines.stream",
    "resilience.policy_sweep", "resilience.policy_stream",
    "resilience.checkpoint",
    "design.scan", "design.constraint_evaluate", "design.tolerance_sample",
    "io.content_hash", "io.cache_store", "io.cache_load",
    "scenarios.run",
)


def layer_breakdown(snapshot: Dict[str, Dict[str, float]],
                    wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    Parameters
    ----------
    snapshot:
        :meth:`Tracer.take` output covering exactly the timed phase.
    wall_s:
        The phase's wall time.

    Returns
    -------
    dict
        ``<span>.calls`` and ``<span>.self_s`` for every name in
        :data:`SPANS` (zero when the workload never entered the span), the
        byte/hit/chunk counters, ``trace.other_s`` (wall time no span
        covers) and ``trace.coverage`` (share of the wall the spans cover).
        The self times plus ``trace.other_s`` sum to ``wall_s``.
    """
    calls, self_s = snapshot["calls"], snapshot["self_s"]
    counters = snapshot["counters"]
    metrics: Dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("io.cache_store.bytes", "io.cache_load.bytes",
                 "design.chunks_computed", "design.chunks_resumed",
                 "resilience.checkpoint.chunks_computed",
                 "resilience.checkpoint.chunks_resumed"):
        metrics[name] = counters.get(name, 0)
    loads = calls.get("io.cache_load", 0)
    metrics["io.cache_hit_ratio"] = \
        counters.get("io.cache_load.hits", 0) / loads if loads else 0.0
    spanned = sum(self_s.values())
    metrics["trace.other_s"] = wall_s - spanned
    metrics["trace.coverage"] = spanned / wall_s if wall_s > 0 else 0.0
    return metrics
