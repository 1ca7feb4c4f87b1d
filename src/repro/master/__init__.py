"""Master-equation solvers: state spaces, rate matrices, steady state, dynamics."""

from typing import TYPE_CHECKING, Any, List

from .statespace import (MAX_STATES, StateSpace, auto_state_space,
                         auto_window, build_state_space)

if TYPE_CHECKING:
    from .builder import RateMatrixBuilder, Transition
    from .dynamics import EvolutionResult, MasterEquationDynamics
    from .steadystate import (DENSE_STATE_CUTOFF, MasterEquationSolver,
                              SteadyStateSolution)
    from .transitions import TransitionTable

#: Names resolved from their submodules on first use: the solver loads
#: scipy, and the closed-form chain of the ``master`` engine needs only
#: :mod:`~repro.master.statespace`.
_LAZY = {
    "DENSE_STATE_CUTOFF": "steadystate",
    "EvolutionResult": "dynamics",
    "MasterEquationDynamics": "dynamics",
    "MasterEquationSolver": "steadystate",
    "RateMatrixBuilder": "builder",
    "SteadyStateSolution": "steadystate",
    "Transition": "builder",
    "TransitionTable": "transitions",
}


def __getattr__(name: str) -> Any:
    """Resolve the solver, dynamics, builder and transition names lazily."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__() -> List[str]:
    """Include the lazily resolved names in ``dir(repro.master)``."""
    return sorted(list(globals()) + list(_LAZY))


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
