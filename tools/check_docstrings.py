#!/usr/bin/env python3
"""Docstring lint for the public API (pydocstyle/ruff-D style, zero deps).

Scope: the modules listed in ``SCOPED_MODULES`` — the scenario subsystem,
the CLI, the result cache, and the cross-engine entry points the docs
reference.  Two rule sets:

* **presence** (ruff D100/D101/D102/D103 equivalents): the module and every
  public class, function, and method must carry a docstring whose first
  line ends with a period;
* **NumPy sections**: the key entry points in ``SECTIONED_CALLABLES`` must
  additionally carry ``Parameters`` and ``Returns`` underlined section
  headers.

Run from the repository root::

    python tools/check_docstrings.py

Exit status 0 when clean, 1 with one line per violation otherwise.  CI runs
this (plus ``ruff --select D1`` when available) as the docs-lint job.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules under the docstring contract.
SCOPED_MODULES = [
    "src/repro/cli.py",
    "src/repro/__main__.py",
    "src/repro/io/results.py",
    "src/repro/io/documents.py",
    "src/repro/engines/__init__.py",
    "src/repro/engines/base.py",
    "src/repro/engines/adapters.py",
    "src/repro/engines/registry.py",
    "src/repro/scenarios/__init__.py",
    "src/repro/scenarios/engines.py",
    "src/repro/scenarios/library.py",
    "src/repro/scenarios/registry.py",
    "src/repro/scenarios/result.py",
    "src/repro/scenarios/runner.py",
    "src/repro/scenarios/spec.py",
    "src/repro/montecarlo/simulator.py",
    "src/repro/master/steadystate.py",
    "src/repro/compact/set_model.py",
    "src/repro/compact/sweep.py",
    "src/repro/resilience/__init__.py",
    "src/repro/resilience/checkpoint.py",
    "src/repro/resilience/chunks.py",
    "src/repro/resilience/events.py",
    "src/repro/resilience/execution.py",
    "src/repro/resilience/faults.py",
    "src/repro/resilience/policy.py",
    "src/repro/design/__init__.py",
    "src/repro/design/spec.py",
    "src/repro/design/constraints.py",
    "src/repro/design/tolerance.py",
    "src/repro/design/feasibility.py",
    "src/repro/design/scan.py",
]

#: (module, qualified name) pairs that must carry NumPy-style ``Parameters``
#: and ``Returns`` sections (the public entry points named in the docs).
SECTIONED_CALLABLES = {
    ("src/repro/montecarlo/simulator.py", "MonteCarloSimulator.run"),
    ("src/repro/montecarlo/simulator.py", "MonteCarloSimulator.run_ensemble"),
    ("src/repro/montecarlo/simulator.py",
     "MonteCarloSimulator.stationary_current"),
    ("src/repro/montecarlo/simulator.py", "MonteCarloSimulator.sweep_source"),
    ("src/repro/master/steadystate.py", "MasterEquationSolver.sweep_source"),
    ("src/repro/master/steadystate.py",
     "MasterEquationSolver.sweep_gate_drain"),
    ("src/repro/compact/set_model.py", "AnalyticSETModel.drain_current_map"),
    ("src/repro/compact/set_model.py",
     "MasterEquationSETModel.drain_current_map"),
    ("src/repro/compact/set_model.py", "TunableSETModel.drain_current_map"),
    ("src/repro/engines/registry.py", "select_engine"),
    ("src/repro/scenarios/engines.py", "EngineContext.session"),
    ("src/repro/scenarios/engines.py", "EngineContext.sweep"),
    ("src/repro/engines/base.py", "Engine.bind"),
    ("src/repro/engines/base.py", "Session.sweep"),
    ("src/repro/engines/base.py", "SweepResult.record"),
    ("src/repro/engines/registry.py", "get_engine"),
    ("src/repro/engines/adapters.py", "analytic_model_for"),
    ("src/repro/scenarios/runner.py", "ScenarioRunner.run"),
    ("src/repro/scenarios/registry.py", "run_scenario"),
    ("src/repro/io/results.py", "ResultCache.load"),
    ("src/repro/io/results.py", "ResultCache.store"),
    ("src/repro/design/scan.py", "DeviceScan.run"),
    ("src/repro/resilience/chunks.py", "run_chunks"),
    ("src/repro/design/scan.py", "analyze_yield"),
    ("src/repro/design/feasibility.py", "FeasibilityMap.from_payload"),
}

_SECTION_PATTERNS = {
    "Parameters": re.compile(r"^\s*Parameters\s*\n\s*-{4,}", re.MULTILINE),
    "Returns": re.compile(r"^\s*Returns\s*\n\s*-{4,}", re.MULTILINE),
}


def iter_definitions(tree):
    """Yield ``(qualified_name, node)`` for module-level defs and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{child.name}", child


def is_public(qualified_name):
    """Whether every path segment of a qualified name is public."""
    return all(not part.startswith("_") for part in qualified_name.split("."))


def is_property_overload(node):
    """Whether a function is an ``@x.setter`` / ``@x.deleter`` overload.

    Those share the getter's docstring, so requiring another one would just
    force duplication.
    """
    if isinstance(node, ast.ClassDef):
        return False
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and \
                decorator.attr in ("setter", "deleter"):
            return True
    return False


def check_module(relative_path):
    """Return a list of violation strings for one module."""
    path = REPO_ROOT / relative_path
    violations = []
    tree = ast.parse(path.read_text(), filename=str(path))

    module_doc = ast.get_docstring(tree)
    if not module_doc:
        violations.append(f"{relative_path}:1 missing module docstring")

    seen = {}
    for qualified_name, node in iter_definitions(tree):
        seen[qualified_name] = node
        if not is_public(qualified_name) or is_property_overload(node):
            continue
        docstring = ast.get_docstring(node)
        location = f"{relative_path}:{node.lineno}"
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        if not docstring:
            violations.append(
                f"{location} missing docstring on public {kind} "
                f"{qualified_name!r}")
            continue
        first_line = docstring.strip().splitlines()[0].rstrip()
        if not first_line.endswith("."):
            violations.append(
                f"{location} docstring of {qualified_name!r} should end its "
                f"first line with a period")

    for module, qualified_name in sorted(SECTIONED_CALLABLES):
        if module != relative_path:
            continue
        node = seen.get(qualified_name)
        if node is None:
            violations.append(
                f"{relative_path} expected callable {qualified_name!r} not "
                f"found (update SECTIONED_CALLABLES?)")
            continue
        docstring = ast.get_docstring(node) or ""
        for section, pattern in _SECTION_PATTERNS.items():
            if not pattern.search(docstring):
                violations.append(
                    f"{relative_path}:{node.lineno} {qualified_name!r} is "
                    f"missing a NumPy-style '{section}' section")
    return violations


def main():
    """Check every scoped module; print violations; return the exit code."""
    all_violations = []
    for relative_path in SCOPED_MODULES:
        if not (REPO_ROOT / relative_path).exists():
            all_violations.append(f"{relative_path} scoped module missing")
            continue
        all_violations.extend(check_module(relative_path))
    for violation in all_violations:
        print(violation)
    if all_violations:
        print(f"\n{len(all_violations)} docstring violation(s)")
        return 1
    print(f"docstrings OK across {len(SCOPED_MODULES)} modules "
          f"({len(SECTIONED_CALLABLES)} section-checked entry points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
