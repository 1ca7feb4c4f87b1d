"""Kinetic Monte-Carlo simulation of single-electron circuits (SIMON-like engine)."""

from .cotunneling import (
    CotunnelTable,
    enumerate_cotunnel_candidates,
    intermediate_energies,
)
from .events import CotunnelCandidate, TrapCandidate, TunnelCandidate
from .jit import jit_backend, jit_compiled, resolve_advance
from .kernel import MonteCarloKernel
from .observables import (
    CurrentEstimate,
    EnsembleResult,
    EventRecord,
    OccupationStatistics,
    TrajectoryResult,
    block_average,
)
from .simulator import MonteCarloSimulator
from .state import (
    EnsembleState,
    SimulationState,
    initial_ensemble,
    initial_state,
)

__all__ = [
    "CotunnelCandidate",
    "CotunnelTable",
    "CurrentEstimate",
    "EnsembleResult",
    "EnsembleState",
    "EventRecord",
    "MonteCarloKernel",
    "MonteCarloSimulator",
    "OccupationStatistics",
    "SimulationState",
    "TrajectoryResult",
    "TrapCandidate",
    "TunnelCandidate",
    "block_average",
    "enumerate_cotunnel_candidates",
    "initial_ensemble",
    "initial_state",
    "intermediate_energies",
    "jit_backend",
    "jit_compiled",
    "resolve_advance",
]
