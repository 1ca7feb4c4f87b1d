"""Assembly of the master-equation rate matrix.

The builder separates *structure* from *values*: a
:class:`~repro.master.transitions.TransitionTable` enumerates the state
window, resolves every (source, target) index pair and precomputes the
bias-independent part of each event energy once, after which only the rate
values are refreshed when the operating point changes (one vectorized
:func:`~repro.core.rates.orthodox_rate_vec` call).  The collected transitions
define

* the generator matrix ``M`` with ``M[j, i]`` = rate from state ``i`` to state
  ``j`` and ``M[i, i] = -sum_j M[j, i]`` (columns sum to zero), assembled
  either dense (NumPy array) or sparse (``scipy.sparse.csr_matrix``), and
* per-junction bookkeeping needed to turn occupation probabilities into
  electrical currents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..core.energy import EnergyModel
from ..errors import StateSpaceError
from .statespace import (StateSpace, auto_state_space, auto_window,
                         build_state_space)
from .transitions import TransitionTable

#: Automatic-window tables a builder keeps, least recently used evicted
#: first.  A 129-point sweep of the reference SET over two gate periods
#: visits 3 windows at 2 K, 9 at kT = E_C and 15 at kT = 3 E_C (the
#: widened ones included), so a repeated sweep rebuilds none.
_WINDOW_TABLES = 16


@dataclass(frozen=True)
class Transition:
    """A single allowed transition of the master equation.

    Attributes
    ----------
    source_index, target_index:
        Dense indices of the initial and final charge states.
    junction_name:
        Name of the junction the electron crosses.
    electron_direction:
        ``+1`` if the electron moves from the junction's ``node_a`` to
        ``node_b``, ``-1`` for the reverse.
    rate:
        Orthodox tunnel rate in events per second.
    delta_f:
        Free-energy change of the event in joule.
    """

    source_index: int
    target_index: int
    junction_name: str
    electron_direction: int
    rate: float
    delta_f: float


class RateMatrixBuilder:
    """Builds generator matrices for a circuit at a given temperature.

    Parameters
    ----------
    circuit:
        The single-electron circuit.
    temperature:
        Temperature in kelvin.
    state_space:
        Explicit state window; when omitted an automatic window around the
        ground state is used (recomputed per operating point).
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 state_space: Optional[StateSpace] = None,
                 extra_electrons: int = 3) -> None:
        if temperature < 0.0:
            raise StateSpaceError("temperature must be non-negative")
        self.circuit = circuit
        self.temperature = float(temperature)
        self.model = EnergyModel(circuit)
        self.extra_electrons = extra_electrons
        self._explicit_space = state_space
        self._cached_table: Optional[TransitionTable] = None
        self._window_tables: Dict[Tuple[Tuple[int, int], ...],
                                  TransitionTable] = {}

    def state_space(self, voltages: Optional[np.ndarray] = None,
                    offsets: Optional[np.ndarray] = None) -> StateSpace:
        """The state window used at the given operating point."""
        if self._explicit_space is not None:
            return self._explicit_space
        return auto_state_space(self.model, extra_electrons=self.extra_electrons,
                                voltages=voltages, offsets=offsets)

    def transition_table(self, space: Optional[StateSpace] = None,
                         voltages: Optional[np.ndarray] = None,
                         offsets: Optional[np.ndarray] = None
                         ) -> TransitionTable:
        """The (cached) transition structure for a state window.

        The expensive part — target lookup, index pairs, static energies — is
        computed once per window and reused as long as consecutive calls
        resolve to the same window (the same space or states, or the same
        automatic box through :meth:`window_table`).  Only the rate values
        change with the bias.
        """
        if space is None:
            space = self._explicit_space
        if space is None:
            bounds, _, _ = auto_window(self.model, self.extra_electrons,
                                       voltages, offsets)
            return self.window_table(bounds)
        cached = self._cached_table
        if cached is not None and (cached.space is space
                                   or cached.space.states == space.states):
            return cached
        table = TransitionTable(self.model, space, self.temperature)
        self._cached_table = table
        return table

    def window_table(self, bounds: List[Tuple[int, int]]) -> TransitionTable:
        """The (cached) transition structure of an automatic box window.

        Keeps the tables of the :data:`_WINDOW_TABLES` most recently used
        boxes, keyed on their bounds, and enumerates a box only when it is
        not among them.
        """
        tables = self._window_tables
        key = tuple(bounds)
        table = tables.pop(key, None)
        if table is None:
            table = TransitionTable(self.model, build_state_space(bounds),
                                    self.temperature)
            if len(tables) >= _WINDOW_TABLES:
                del tables[next(iter(tables))]
        tables[key] = table
        self._cached_table = table
        return table

    def transitions(self, space: Optional[StateSpace] = None,
                    voltages: Optional[np.ndarray] = None,
                    offsets: Optional[np.ndarray] = None) -> List[Transition]:
        """Every allowed transition within the state window.

        Rates are evaluated through the structure-reusing
        :class:`TransitionTable`: index pairs and static energies are
        precomputed per window, then all rates follow from one vectorized
        ``orthodox_rate_vec`` call.
        """
        table = self.transition_table(space, voltages, offsets)
        rates, delta = table.rates(voltages, offsets)
        return table.transitions_list(rates, delta)

    def generator_matrix(self, space: Optional[StateSpace] = None,
                         voltages: Optional[np.ndarray] = None,
                         offsets: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, List[Transition], StateSpace]:
        """Dense generator matrix ``M``, transitions and window.

        ``dp/dt = M p`` with ``p`` the vector of state probabilities.  This is
        the correctness-baseline path; large windows take the sparse
        generator of :meth:`transition_table`
        (:meth:`~repro.master.transitions.TransitionTable.sparse_generator`).
        """
        table = self.transition_table(space, voltages, offsets)
        rates, delta = table.rates(voltages, offsets)
        matrix = table.dense_generator(rates)
        return matrix, table.transitions_list(rates, delta), table.space


__all__ = ["Transition", "RateMatrixBuilder"]
