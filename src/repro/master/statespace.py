"""Charge-state enumeration for the master-equation solver.

The master equation works on a finite window of electron configurations
``n = (n_1, ..., n_N)``.  :class:`StateSpace` enumerates that window and maps
configurations to dense indices.  The window is either given explicitly or
constructed automatically around the zero-temperature ground state, which for
the bias ranges of interest keeps the state count tiny (a handful of states
for a SET, a few hundred for coupled double dots).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import EnergyModel
from ..errors import StateSpaceError

#: Hard cap on the number of enumerated states.  The sparse engine
#: (``method="sparse"``) solves windows up to this size; beyond it the master
#: equation is the wrong tool and the Monte-Carlo simulator should be used.
#: (The dense path tops out far earlier — an N x N float64 generator needs
#: ``8 N^2`` bytes, i.e. ~320 GB at this cap.)
MAX_STATES = 200_000


@dataclass(frozen=True)
class StateSpace:
    """A finite set of electron configurations.

    Attributes
    ----------
    states:
        Tuple of configurations, each a tuple of per-island electron numbers.
    index:
        Mapping configuration -> dense index into ``states``.
    """

    states: Tuple[Tuple[int, ...], ...]
    index: Dict[Tuple[int, ...], int]

    @property
    def size(self) -> int:
        """Number of states in the window."""
        return len(self.states)

    @property
    def island_count(self) -> int:
        """Number of islands (dimensionality of each configuration)."""
        return len(self.states[0]) if self.states else 0

    def __contains__(self, configuration: Sequence[int]) -> bool:
        return tuple(int(v) for v in configuration) in self.index

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, configuration: Sequence[int]) -> int:
        """Dense index of ``configuration`` (raises ``KeyError`` if outside)."""
        return self.index[tuple(int(v) for v in configuration)]

    def as_array(self) -> np.ndarray:
        """All configurations stacked into an ``(size, islands)`` int array."""
        return np.array(self.states, dtype=np.int64)


def build_state_space(bounds: Sequence[Tuple[int, int]]) -> StateSpace:
    """Enumerate every configuration within per-island ``(low, high)`` bounds."""
    if not bounds:
        raise StateSpaceError("at least one island bound is required")
    sizes = []
    for low, high in bounds:
        if high < low:
            raise StateSpaceError(f"invalid bound ({low}, {high}): high < low")
        sizes.append(high - low + 1)
    total = int(np.prod(sizes, dtype=np.int64))
    if total > MAX_STATES:
        raise StateSpaceError(
            f"state space of {total} configurations exceeds the limit of {MAX_STATES}; "
            "narrow the bounds or use the Monte-Carlo simulator"
        )
    ranges = [range(low, high + 1) for low, high in bounds]
    states = tuple(product(*ranges))
    index = {state: position for position, state in enumerate(states)}
    return StateSpace(states=states, index=index)


def auto_window(model: EnergyModel, extra_electrons: int = 3,
                voltages: Optional[np.ndarray] = None,
                offsets: Optional[np.ndarray] = None
                ) -> Tuple[List[Tuple[int, int]], np.ndarray, np.ndarray]:
    """Window bounds and two ground states from one greedy walk.

    Returns ``(bounds, centre, start)``: the window is centred on the walk
    under the limit ``extra_electrons + 5``, and ``start`` is where the same
    walk stops under :meth:`~repro.core.energy.EnergyModel.ground_state`'s
    default limit of 5, the state a stationary solve starts from.  The
    solver uses the bounds to decide whether its cached
    :class:`~repro.master.transitions.TransitionTable` still serves the new
    operating point without enumerating the window again.
    """
    if extra_electrons < 1:
        raise StateSpaceError(
            f"extra_electrons must be at least 1, got {extra_electrons!r}"
        )
    if model.island_count == 0:
        raise StateSpaceError("the circuit has no islands; nothing to enumerate")
    start, centre = model.ground_states((5, extra_electrons + 5),
                                        voltages, offsets)
    bounds = [(int(n) - extra_electrons, int(n) + extra_electrons)
              for n in centre]
    return bounds, centre, start


def auto_state_space(model: EnergyModel, extra_electrons: int = 3,
                     voltages: Optional[np.ndarray] = None,
                     offsets: Optional[np.ndarray] = None) -> StateSpace:
    """Build a window of ``+- extra_electrons`` around the T = 0 ground state.

    Parameters
    ----------
    model:
        Energy model of the circuit.
    extra_electrons:
        Half-width of the window on each island.  Three is ample for single
        SETs at biases up to a few charging energies; coupled-dot circuits at
        large bias may need more.
    voltages, offsets:
        Optional overrides of the circuit's source voltages / offset charges
        (used by sweeps so the window follows the operating point).
    """
    bounds, _, _ = auto_window(model, extra_electrons, voltages, offsets)
    return build_state_space(bounds)


__all__ = ["StateSpace", "build_state_space", "auto_state_space",
           "auto_window", "MAX_STATES"]
