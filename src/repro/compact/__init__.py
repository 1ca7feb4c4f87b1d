"""SPICE-like compact-model circuit solver for hybrid SET-MOS designs."""

from typing import Any, List

from .set_model import AnalyticSETModel, MasterEquationSETModel, SETDevice, TunableSETModel

#: Names resolved from their submodules on first use: a ``master`` session
#: needs only :mod:`~repro.compact.set_model`, and should not load the
#: circuit solver, its elements and the device models with it.
_LAZY = {
    "CapacitorDC": "elements",
    "CompactCircuit": "circuit",
    "CurrentSource": "elements",
    "DCSolution": "solver",
    "DCSolver": "solver",
    "GROUND": "circuit",
    "JunctionVaractor": "varactor",
    "MOSFET": "mosfet",
    "MOSFETModel": "mosfet",
    "Resistor": "elements",
    "SuspendedGateVaractor": "varactor",
    "SweepResult": "sweep",
    "THERMAL_VOLTAGE_300K": "mosfet",
    "TransientResult": "sweep",
    "Varactor": "varactor",
    "dc_sweep": "sweep",
    "quasi_static_transient": "sweep",
}


def __getattr__(name: str) -> Any:
    """Resolve the circuit-solver names from their submodules on first use."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__() -> List[str]:
    """Include the lazily resolved names in ``dir(repro.compact)``."""
    return sorted(list(globals()) + list(_LAZY))


__all__ = [
    "AnalyticSETModel",
    "CapacitorDC",
    "CompactCircuit",
    "CurrentSource",
    "DCSolution",
    "DCSolver",
    "GROUND",
    "JunctionVaractor",
    "MOSFET",
    "MOSFETModel",
    "MasterEquationSETModel",
    "Resistor",
    "SETDevice",
    "SuspendedGateVaractor",
    "SweepResult",
    "THERMAL_VOLTAGE_300K",
    "TransientResult",
    "TunableSETModel",
    "Varactor",
    "dc_sweep",
    "quasi_static_transient",
]
