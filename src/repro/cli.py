"""Command-line interface: ``python -m repro {run,list,describe,compare,engines}``.

The CLI is a thin shell over :mod:`repro.scenarios` and the engine registry
of :mod:`repro.engines`:

* ``list`` — every registered scenario with its engine and title;
* ``describe NAME`` — the full spec (device, sweeps, observables, budget)
  plus the paper claim and expected outputs;
* ``run NAME [NAME ...]`` — execute scenarios end-to-end through the result
  cache (``--no-cache`` forces recompute, ``--engine`` overrides the spec,
  ``--spec FILE`` runs a JSON/TOML spec document, ``--all`` runs the whole
  registry);
* ``compare NAME`` — run one scenario under several registry-resolved
  engines and tabulate the metrics side by side;
* ``engines`` — every registered engine with its capability flags,
  exactness class, and cost model;
* ``design`` — run a design-space scan (``--spec FILE`` or ``--demo``) to a
  feasibility map, or analyse one point's tolerance yield
  (``--yield-point``);
* ``faults`` — the named fault-injection sites of the resilience layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .engines import ENGINE_ALIASES, list_engines
from .errors import ReproError
from .io.tables import format_table
from .scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    default_cache_dir,
    get_scenario,
    iter_scenarios,
    known_engine_names,
    scenario_names,
)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Single-electronics scenario runner "
                    "(Wasshuber03 reproduction).")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list every registered scenario")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")

    describe_parser = commands.add_parser(
        "describe", help="show one scenario's spec and expected outputs")
    describe_parser.add_argument("name", help="registered scenario name")
    describe_parser.add_argument("--json", action="store_true",
                                 help="machine-readable output")

    run_parser = commands.add_parser(
        "run", help="run scenarios end-to-end (cache-aware)")
    run_parser.add_argument("names", nargs="*", metavar="NAME",
                            help="registered scenario names")
    run_parser.add_argument("--all", action="store_true",
                            help="run every registered scenario")
    run_parser.add_argument("--spec", metavar="FILE",
                            help="run a JSON/TOML spec document instead of "
                                 "a registered spec")
    run_parser.add_argument("--engine", metavar="ENGINE",
                            help="override the spec's engine with any "
                                 "registered engine name (see "
                                 "'repro engines')")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="always recompute; never read or write "
                                 "the result cache")
    run_parser.add_argument("--cache-dir", metavar="DIR",
                            help=f"result-cache directory "
                                 f"(default: {default_cache_dir()})")
    run_parser.add_argument("--json", action="store_true",
                            help="print the result payload as JSON")
    run_parser.add_argument("--quiet", action="store_true",
                            help="suppress progress logging")

    compare_parser = commands.add_parser(
        "compare", help="run one scenario under several engines")
    compare_parser.add_argument("name", help="registered scenario name")
    compare_parser.add_argument(
        "--engines", default="analytic,master,montecarlo",
        help="comma-separated registered engine names to compare "
             "(default: analytic,master,montecarlo; see 'repro engines')")
    compare_parser.add_argument("--no-cache", action="store_true",
                                help="always recompute")
    compare_parser.add_argument("--cache-dir", metavar="DIR",
                                help="result-cache directory")

    engines_parser = commands.add_parser(
        "engines", help="list registered engines with their capabilities")
    engines_parser.add_argument("--json", action="store_true",
                                help="machine-readable output")

    faults_parser = commands.add_parser(
        "faults", help="list the named fault-injection sites of the "
                       "resilience layer")
    faults_parser.add_argument("--json", action="store_true",
                               help="machine-readable output")

    design_parser = commands.add_parser(
        "design", help="run a design-space scan to a feasibility map")
    design_parser.add_argument("--spec", metavar="FILE",
                               help="JSON/TOML design document (see "
                                    "docs/design.md)")
    design_parser.add_argument("--demo", action="store_true",
                               help="run the built-in demo scan instead of "
                                    "a spec file")
    design_parser.add_argument("--engine", metavar="ENGINE",
                               help="override the document's engine")
    design_parser.add_argument("--workers", type=int, default=1,
                               metavar="N",
                               help="worker processes for chunk fan-out "
                                    "(the map is identical for any N)")
    design_parser.add_argument("--lenient", action="store_true",
                               help="degrade failing points/chunks to "
                                    "unknown verdicts instead of aborting")
    design_parser.add_argument("--yield-point", type=int, metavar="INDEX",
                               help="print the tolerance/corner analysis "
                                    "of one grid point instead of scanning")
    design_parser.add_argument("--no-cache", action="store_true",
                               help="never read or write chunk checkpoints")
    design_parser.add_argument("--cache-dir", metavar="DIR",
                               help="checkpoint cache directory "
                                    f"(default: {default_cache_dir()})")
    design_parser.add_argument("--json", action="store_true",
                               help="print the feasibility-map payload as "
                                    "JSON")
    return parser


def _log(message: str) -> None:
    """Progress line on stderr (stdout stays machine-readable)."""
    print(message, file=sys.stderr)


def _command_list(arguments) -> int:
    """Implement ``repro list``."""
    scenarios = iter_scenarios()
    if arguments.json:
        print(json.dumps([{"name": s.name, "engine": s.spec.engine,
                           "title": s.title} for s in scenarios], indent=2))
        return 0
    print(format_table(
        ["scenario", "engine", "title"],
        [[s.name, s.spec.engine, s.title] for s in scenarios],
        title=f"{len(scenarios)} registered scenarios"))
    return 0


def _command_describe(arguments) -> int:
    """Implement ``repro describe``."""
    scenario = get_scenario(arguments.name)
    spec = scenario.spec
    if arguments.json:
        print(json.dumps({"spec": spec.to_dict(), "title": scenario.title,
                          "claim": scenario.claim,
                          "expected": list(scenario.expected),
                          "engines": list(scenario.allowed_engines()),
                          "spec_hash": spec.content_hash()}, indent=2))
        return 0
    print(f"{scenario.name} — {scenario.title}")
    print(f"\nclaim: {scenario.claim}")
    print(f"\nengine: {spec.engine}   temperature: {spec.temperature} K   "
          f"seed: {spec.seed}")
    print(f"dispatchable engines: {', '.join(scenario.allowed_engines())}")
    if spec.device:
        print("device:")
        for key, value in sorted(spec.device.items()):
            print(f"  {key} = {value!r}")
    if spec.sweeps:
        print("sweeps:")
        for axis in spec.sweeps:
            if axis.values is not None:
                print(f"  {axis.source}: {len(axis.values)} explicit values "
                      f"[{axis.unit}]")
            else:
                print(f"  {axis.source}: {axis.points} points in "
                      f"[{axis.start:g}, {axis.stop:g}] [{axis.unit}]")
    budget = spec.budget
    print(f"budget: max_events={budget.max_events} "
          f"warmup_events={budget.warmup_events} "
          f"replicas={budget.replicas} workers={budget.workers}")
    if spec.params:
        print("params:")
        for key, value in sorted(spec.params.items()):
            print(f"  {key} = {value!r}")
    print(f"observables: {', '.join(spec.observables)}")
    if scenario.expected:
        print("expected outputs:")
        for line in scenario.expected:
            print(f"  - {line}")
    print(f"spec hash: {spec.content_hash()}")
    return 0


def _unknown_engine(name: Optional[str]) -> bool:
    """Report an ``--engine`` value that no spec would accept."""
    known = known_engine_names()
    if name is None or name in known:
        return False
    print(f"unknown engine {name!r}; registered engines: {list(known)} "
          "(see 'repro engines')", file=sys.stderr)
    return True


def _command_run(arguments) -> int:
    """Implement ``repro run``."""
    if _unknown_engine(arguments.engine):
        return 2
    runner = ScenarioRunner(use_cache=not arguments.no_cache,
                            cache_dir=arguments.cache_dir,
                            log=None if arguments.quiet else _log)
    names: List[str] = list(arguments.names)
    if arguments.all:
        names = scenario_names()
    if arguments.spec:
        if names:
            print("--spec conflicts with scenario names / --all: give one "
                  "or the other", file=sys.stderr)
            return 2
        spec = ScenarioSpec.load(arguments.spec)
        results = [runner.run_spec(spec, engine=arguments.engine)]
    elif not names:
        print("nothing to run: give scenario names, --all, or --spec FILE",
              file=sys.stderr)
        return 2
    else:
        results = [runner.run(name, engine=arguments.engine)
                   for name in names]
    if arguments.json:
        payloads = []
        for result in results:
            payload = result.payload_dict()
            payload["meta"] = dict(result.meta)
            payloads.append(payload)
        # One result prints as an object; several as one parseable array.
        document = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for result in results:
        print(f"=== {result.name} [engine={result.engine}, "
              f"cache={result.meta.get('cache', '?')}] ===")
        result.print()
        print()
    return 0


def _command_engines(arguments) -> int:
    """Implement ``repro engines``."""
    engines = [engine.capabilities() for engine in list_engines()]
    if arguments.json:
        print(json.dumps([{
            "name": caps.name,
            "exactness": caps.exactness,
            **caps.flags(),
            "cost": {"setup_s": caps.cost.setup_s,
                     "per_point_s": caps.cost.per_point_s},
            "description": caps.description,
        } for caps in engines], indent=2))
        return 0

    def _flag(value: bool) -> str:
        return "yes" if value else "-"

    rows = [[caps.name, caps.exactness, _flag(caps.stochastic),
             _flag(caps.supports_ensemble),
             f"{caps.cost.per_point_s:.0e}", caps.description]
            for caps in engines]
    print(format_table(
        ["engine", "exactness", "stochastic", "ensemble", "~s/point",
         "description"], rows,
        title=f"{len(engines)} registered engines"))
    print("\nresolve programmatically: repro.engines.get_engine(NAME)"
          ".bind(device, temperature=...) -> Session")
    return 0


def _command_faults(arguments) -> int:
    """Implement ``repro faults``."""
    from .resilience.faults import SITES

    if arguments.json:
        print(json.dumps([{"site": site, "description": description}
                          for site, description in sorted(SITES.items())],
                         indent=2))
        return 0
    rows = [[site, description]
            for site, description in sorted(SITES.items())]
    print(format_table(["site", "injectable fault"], rows,
                       title=f"{len(SITES)} named fault-injection sites"))
    print("\narm programmatically: repro.resilience.FaultInjector(seed)"
          ".arm(SITE, ...) as a context manager (docs/robustness.md)")
    return 0


#: The built-in demo design document (``repro design --demo``).
_DEMO_DESIGN = {
    "name": "demo_feasibility",
    "device": {"junction_capacitance": 1e-18, "gate_capacitance": 2e-18,
               "junction_resistance": 1e6},
    "axes": [
        {"parameter": "gate_capacitance", "start": 5e-19, "stop": 8e-18,
         "points": 16, "spacing": "log"},
        {"parameter": "temperature",
         "values": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]},
    ],
    "constraints": [
        {"type": "gain", "threshold": 1.0},
        {"type": "on_off_ratio", "threshold": 10.0},
        {"type": "max_temperature"},
        {"type": "modulation_depth", "threshold": 0.5},
    ],
    "chunk_size": 32,
}

#: Glyphs of the ASCII feasibility rendering, by verdict code.
_VERDICT_GLYPHS = {1: "#", 0: ".", -1: "?"}


def _render_design_map(feasibility) -> List[str]:
    """ASCII rendering of a 1-D/2-D feasibility map (rows = first axis)."""
    grid = feasibility.verdict_grid()
    if grid.ndim == 1:
        grid = grid.reshape(1, -1)
    if grid.ndim != 2:
        return [f"({grid.ndim}-D grid; use --json for the full payload)"]
    lines = [f"rows: {feasibility.parameters[0]}; "
             + (f"columns: {feasibility.parameters[1]}; "
                if len(feasibility.parameters) > 1 else "")
             + "# feasible, . infeasible, ? unknown"]
    for row in grid:
        lines.append("".join(_VERDICT_GLYPHS[int(v)] for v in row))
    return lines


def _command_design(arguments) -> int:
    """Implement ``repro design``."""
    from .design import DesignSpec, DeviceScan, analyze_yield
    from .io.results import ResultCache
    from .resilience.policy import FailurePolicy

    if arguments.demo and arguments.spec:
        print("--demo conflicts with --spec: give one or the other",
              file=sys.stderr)
        return 2
    if arguments.demo:
        spec = DesignSpec.from_dict(_DEMO_DESIGN)
    elif arguments.spec:
        spec = DesignSpec.load(arguments.spec)
    else:
        print("nothing to scan: give --spec FILE or --demo",
              file=sys.stderr)
        return 2
    if _unknown_engine(arguments.engine):
        return 2
    if arguments.engine is not None:
        spec = spec.replace(engine=arguments.engine)

    if arguments.yield_point is not None:
        report = analyze_yield(spec, flat_index=arguments.yield_point)
        if arguments.json:
            print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
            return 0
        point = ", ".join(f"{k}={v:g}" for k, v in report.point.items()) \
            or "(base device)"
        print(f"design point #{arguments.yield_point}: {point}")
        print(f"seeded yield: {report.feasible_samples}/{report.samples} "
              f"= {report.yield_fraction:.3f}")
        print(f"worst case feasible: "
              f"{'yes' if report.worst_case_feasible else 'no'}")
        if report.corners:
            print(format_table(
                ["corner", "feasible"],
                [[", ".join(f"{k}={v:g}"
                            for k, v in corner["assignment"].items()),
                  "yes" if corner["feasible"] else "no"]
                 for corner in report.corners],
                title=f"{len(report.corners)} worst-case corners"))
        return 0

    cache = None
    if not arguments.no_cache:
        cache = ResultCache(arguments.cache_dir or default_cache_dir())
    policy = FailurePolicy.lenient() if arguments.lenient else None
    scan = DeviceScan(spec, cache=cache, policy=policy)
    feasibility = scan.run(workers=max(1, arguments.workers))
    if arguments.json:
        print(json.dumps(feasibility.to_payload(), indent=2,
                         sort_keys=True))
        return 0
    print(f"=== {spec.name} [spec {spec.content_hash()[:12]}] ===")
    for line in feasibility.summary_lines():
        print(line)
    print()
    for line in _render_design_map(feasibility):
        print(line)
    return 0


def _command_compare(arguments) -> int:
    """Implement ``repro compare``."""
    engines = [engine.strip() for engine in arguments.engines.split(",")
               if engine.strip()]
    if any(_unknown_engine(engine) for engine in engines):
        return 2
    scenario = get_scenario(arguments.name)
    allowed = scenario.allowed_engines()
    unsupported = [engine for engine in engines
                   if ENGINE_ALIASES.get(engine, engine) not in allowed]
    if unsupported:
        print(f"scenario {arguments.name!r} dispatches only on "
              f"{sorted(allowed)}; cannot compare on {unsupported} "
              "(its compute is pinned, so per-engine runs would be "
              "identical recomputations)", file=sys.stderr)
        return 2
    runner = ScenarioRunner(use_cache=not arguments.no_cache,
                            cache_dir=arguments.cache_dir, log=_log)
    results = {engine: runner.run(arguments.name, engine=engine)
               for engine in engines}
    metric_names = sorted(set().union(
        *(result.metrics for result in results.values())))
    rows = []
    for metric in metric_names:
        rows.append([metric] + [results[engine].metrics.get(metric, "-")
                                for engine in engines])
    print(format_table(["metric"] + engines, rows,
                       title=f"{arguments.name}: metrics by engine"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {"list": _command_list, "describe": _command_describe,
                "run": _command_run, "compare": _command_compare,
                "engines": _command_engines, "faults": _command_faults,
                "design": _command_design}
    try:
        return handlers[arguments.command](arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


__all__ = ["build_parser", "main"]
