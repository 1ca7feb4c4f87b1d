"""repro: a single-electronics simulation and circuit-design toolkit.

This package reproduces the system described by the survey *"Recent Advances
and Future Prospects in Single-Electronics"*: the orthodox-theory physics
core, a dedicated (SIMON-like) kinetic Monte-Carlo simulator, a
master-equation solver, a SPICE-like compact-model circuit solver for hybrid
SET-MOS designs, a device and logic library (including background-charge
immune AM/FM coded logic), and the hybrid applications the paper highlights
(multi-valued logic quantizer and single-electron random-number generator).

Quickstart
----------
The highest-level entry point is the scenario layer: every canonical paper
experiment is a registered, declaratively specified workload that runs
through the right engine and a content-hash result cache (see ``README.md``
and ``docs/scenarios.md``):

>>> from repro.scenarios import run_scenario
>>> result = run_scenario("coulomb_oscillations")  # doctest: +SKIP

or, from a shell, ``python -m repro run coulomb_oscillations``.  All four
simulation backends sit behind the unified engine protocol of
:mod:`repro.engines` — resolve by name, bind a device, get one result
model (``python -m repro engines`` lists the capabilities):

>>> from repro.engines import get_engine, SweepAxes  # doctest: +SKIP
>>> session = get_engine("master").bind(set_device, temperature=1.0)  # doctest: +SKIP
>>> result = session.sweep(SweepAxes(gates, drain_voltage=2e-3))  # doctest: +SKIP

The layers underneath remain directly usable:

>>> from repro.devices import SETTransistor
>>> from repro.master import MasterEquationSolver
>>> set_device = SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
...                            junction_resistance=1e6)
>>> circuit = set_device.build_circuit(drain_voltage=1e-3, gate_voltage=0.0)
>>> solver = MasterEquationSolver(circuit, temperature=1.0)
>>> current = solver.current("J_drain")

Performance
-----------
The kinetic Monte-Carlo engine is vectorized: every tunnel event is
flattened at kernel construction into precomputed NumPy event tables
(terminal indices, reorganisation energies, resistances, update vectors),
rates are evaluated through the array-valued
:func:`repro.core.rates.orthodox_rate_vec` /
:func:`repro.core.rates.cotunneling_rate_vec`, island potentials are updated
incrementally after each event instead of re-solved, and the cumulative rate
table of every visited charge configuration is memoised.  The original scalar
implementation is kept as a test oracle
(``tests/montecarlo/reference_kernel.py``) and the test-suite asserts both
agree.  ``PERFORMANCE.md`` describes the design;
``benchmarks/bench_kernel_throughput.py`` measures the speedup (>= 5x on the
reference SET) and records it in ``BENCH_kernel.json``.
"""

from . import constants, units
from .constants import (
    BOLTZMANN,
    E_CHARGE,
    HBAR,
    PLANCK,
    R_QUANTUM,
    charging_energy,
    max_operating_temperature,
    thermal_energy,
)
from .errors import (
    AnalysisError,
    CircuitError,
    ConvergenceError,
    EncodingError,
    NetlistParseError,
    ReproError,
    SimulationError,
    SolverError,
    StateSpaceError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BOLTZMANN",
    "CircuitError",
    "ConvergenceError",
    "E_CHARGE",
    "EncodingError",
    "HBAR",
    "NetlistParseError",
    "PLANCK",
    "R_QUANTUM",
    "ReproError",
    "SimulationError",
    "SolverError",
    "StateSpaceError",
    "ValidationError",
    "charging_energy",
    "constants",
    "max_operating_temperature",
    "thermal_energy",
    "units",
    "__version__",
]
