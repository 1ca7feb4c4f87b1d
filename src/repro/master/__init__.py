"""Master-equation solvers: state spaces, rate matrices, steady state, dynamics."""

from .builder import RateMatrixBuilder, Transition
from .dynamics import EvolutionResult, MasterEquationDynamics
from .statespace import (MAX_STATES, StateSpace, auto_state_space,
                         auto_window, build_state_space)
from .steadystate import (DENSE_STATE_CUTOFF, MasterEquationSolver,
                          SteadyStateSolution)
from .transitions import TransitionTable

__all__ = [
    "DENSE_STATE_CUTOFF",
    "EvolutionResult",
    "MAX_STATES",
    "MasterEquationDynamics",
    "MasterEquationSolver",
    "RateMatrixBuilder",
    "StateSpace",
    "SteadyStateSolution",
    "Transition",
    "TransitionTable",
    "auto_state_space",
    "auto_window",
    "build_state_space",
]
