"""Import hygiene: the front doors load neither scipy nor the master solver.

Only code that solves a master equation needs ``repro.master`` and, through
it, scipy; every backend imports them inside the function that builds the
solver.  Each front door below runs in a fresh interpreter, because this
test process has long since imported both.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.devices import SETTransistor
from repro.engines import BiasPoint, get_engine

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
    "cli list": "import contextlib, io\n"
                "from repro.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['list', '--json']) == 0",
}

REPORT = "\nprint('scipy' in sys.modules, 'repro.master' in sys.modules)"


def run_fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter; its output lines, the last one
    saying whether scipy and ``repro.master`` were loaded."""
    completed = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + REPORT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True)
    return completed.stdout.splitlines()


def test_every_package_but_master_is_covered():
    assert "repro.engines" in PACKAGES and "repro.design" in PACKAGES
    assert "repro.master" not in PACKAGES


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_front_door_loads_neither_scipy_nor_master(door):
    assert run_fresh(FRONT_DOORS[door])[-1] == "False False"


def test_a_master_solve_loads_both_and_returns_the_usual_current():
    bias = BiasPoint(0.02, 2e-3)
    expected = get_engine("master").bind(
        SETTransistor(), temperature=1.0).solve(bias).current
    code = ("from repro.devices import SETTransistor\n"
            "from repro.engines import BiasPoint, get_engine\n"
            "print(repr(get_engine('master').bind(SETTransistor(), "
            "temperature=1.0).solve(BiasPoint(0.02, 2e-3)).current))")
    current, loaded = run_fresh(code)
    assert loaded == "True True"
    assert float(current) == expected
    assert expected > 0.0
