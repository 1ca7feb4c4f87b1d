"""Import hygiene: the front doors load neither scipy nor the master solver.

Only code that builds a master-equation solver needs
``repro.master.steadystate`` and, through it, scipy; every backend imports
them inside the function that builds the solver.  The ``master`` engine's
closed-form chain needs only :mod:`repro.master.statespace`, so a process
whose master points are all chain points never loads either.  Each case
below runs in a fresh interpreter, because this test process has long
since imported both.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Every top-level package but the master-equation backend itself.
PACKAGES = sorted(f"repro.{module.name}"
                  for module in pkgutil.iter_modules(repro.__path__)
                  if module.ispkg and module.name != "master")

FRONT_DOORS = {
    **{package: f"import {package}" for package in ["repro", *PACKAGES]},
    "list_engines": "from repro.engines import list_engines\n"
                    "assert list_engines()",
    "jit_backend": "from repro.montecarlo.jit import jit_backend\n"
                   "jit_backend()",
    "SETTransistor": "from repro.devices import SETTransistor\n"
                     "SETTransistor().gate_period",
    "DesignSpec": "from repro.design import DesignSpec, DeviceScan\n"
                  "DesignSpec.from_dict({'name': 'probe', "
                  "'engine': 'analytic', 'axes': [{'parameter': "
                  "'gate_capacitance', 'start': 1e-18, 'stop': 2e-18, "
                  "'points': 2}], 'constraints': [{'type': 'gain', "
                  "'threshold': 1.0}]})",
    "select_engine": "from repro.design import DesignSpec, DeviceScan\n"
                     "from repro.scenarios import iter_scenarios, "
                     "select_engine\n"
                     "for scenario in iter_scenarios():\n"
                     "    select_engine(scenario.spec.with_engine('auto'))\n"
                     "assert DeviceScan(DesignSpec.from_dict({'name': "
                     "'probe', 'engine': 'auto', 'axes': [{'parameter': "
                     "'gate_capacitance', 'start': 1e-18, 'stop': 2e-18, "
                     "'points': 2}], 'constraints': [{'type': 'gain', "
                     "'threshold': 1.0}]})).engine.name == 'analytic'",
    "cli list": "import contextlib, io\n"
                "from repro.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['list', '--json']) == 0",
}


def run_fresh(code: str, modules=("scipy", "repro.master")) -> list:
    """Run ``code`` in a fresh interpreter; its output lines, the last one
    saying which of ``modules`` were loaded."""
    report = f"\nprint(*[name in sys.modules for name in {list(modules)!r}])"
    completed = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + report],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True)
    return completed.stdout.splitlines()


#: Master runs whose points are all chain points.  Each leaves its drain
#: currents in ``currents``.
SETUP = ("import numpy as np\n"
         "from repro.devices import SETTransistor\n"
         "from repro.engines import (BiasPoint, DeviceTable, SweepAxes,\n"
         "                           get_engine)\n"
         "session = get_engine('master').bind(SETTransistor(), "
         "temperature=1.0)\n"
         "axes = SweepAxes(np.linspace(0.0, 0.16, 33), 2e-3)\n")
CHAIN_RUNS = {
    "sweep": "currents = session.sweep(axes).currents",
    "policed stream": "from repro.resilience import FailurePolicy\n"
                      "currents = [observed.current for _, observed in\n"
                      "            session.stream(axes, "
                      "policy=FailurePolicy())]",
    "solve_devices": "table = DeviceTable(SETTransistor(), "
                     "{'gate_capacitance': [1e-18, 2e-18, 3e-18, 4e-18]},\n"
                     "                    [0.5, 1.0, 2.0, 4.0])\n"
                     "currents = get_engine('master').solve_devices(\n"
                     "    table, np.outer(table.gate_period, "
                     "[0.0, 0.25, 0.5]), 2e-3)",
    "DeviceScan": "from repro.design import DesignSpec, DeviceScan\n"
                  "scan = DeviceScan(DesignSpec.from_dict({'name': 'probe', "
                  "'engine': 'master', 'axes': [{'parameter': "
                  "'gate_capacitance', 'start': 1e-18, 'stop': 2e-18, "
                  "'points': 2}], 'constraints': [{'type': "
                  "'on_off_ratio', 'threshold': 10.0}]})).run()\n"
                  "currents = [scan.on_currents, scan.off_currents]",
}

#: A reducible T = 0 point (see tests/resilience/test_chunks.py): the
#: chain hands it to the master-equation solver.
REDUCIBLE = ("from repro.devices import SETTransistor\n"
             "from repro.engines import BiasPoint, get_engine\n"
             "currents = get_engine('master').bind(SETTransistor(\n"
             "    background_charge=1.401088317e-19), temperature=0.0)"
             ".solve(\n    BiasPoint(0.0, -0.06)).current")

SOLVER_MODULES = ("scipy", "repro.master.steadystate")


def fresh_and_local(code: str):
    """``currents`` of ``code`` from a fresh interpreter, as bytes, with its
    loaded-modules line, and the same from this process."""
    printed = code + "\nimport numpy\n" \
        "print(numpy.asarray(currents, dtype=float).tobytes().hex())"
    digest, loaded = run_fresh(printed, SOLVER_MODULES)
    namespace: dict = {}
    exec(code, namespace)
    local = np.asarray(namespace["currents"], dtype=float)
    return bytes.fromhex(digest), loaded, local.tobytes()


def test_every_package_but_master_is_covered():
    assert "repro.engines" in PACKAGES and "repro.design" in PACKAGES
    assert "repro.master" not in PACKAGES


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_front_door_loads_neither_scipy_nor_master(door):
    assert run_fresh(FRONT_DOORS[door])[-1] == "False False"


@pytest.mark.parametrize("run", sorted(CHAIN_RUNS))
def test_chain_only_master_runs_load_neither_scipy_nor_the_solver(run):
    fresh, loaded, local = fresh_and_local(SETUP + CHAIN_RUNS[run])
    assert loaded == "False False"
    assert fresh == local


def test_a_reducible_master_point_loads_both_and_returns_the_usual_current():
    fresh, loaded, local = fresh_and_local(REDUCIBLE)
    assert loaded == "True True"
    assert fresh == local
    assert np.frombuffer(local)[0] != 0.0


def test_a_master_solve_loads_only_the_compact_set_model():
    code = ("from repro.devices import SETTransistor\n"
            "from repro.engines import BiasPoint, get_engine\n"
            "get_engine('master').bind(SETTransistor(), temperature=1.0)"
            ".solve(BiasPoint(0.02, 2e-3))\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.startswith('repro.compact')))")
    assert run_fresh(code)[0] == "['repro.compact', 'repro.compact.set_model']"
