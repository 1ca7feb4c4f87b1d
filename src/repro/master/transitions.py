"""Bias-independent transition structure of the master equation.

Enumerating a charge-state window and locating the target of every tunnel
event is pure *structure*: it depends on the circuit topology and the window,
never on the applied voltages or offset charges.  :class:`TransitionTable`
computes that structure **once** per window — vectorized target lookup,
(source, target) index pairs, junction bookkeeping and the bias-independent
part of every event energy — and then refreshes only the rate *values* when
the operating point moves.

The split exploits the linearity of the electrostatics.  With
``phi = C^-1 (-n e) + C^-1 (q0 + B V)`` the free-energy change of event ``k``
from state ``s`` decomposes into

``dF[s, k] = dF_static[s, k] + dF_bias[k]``

where ``dF_static`` (per-pair, precomputed) collects the electron-number part
plus the reorganisation energy and ``dF_bias`` (per-event, one small gather
per operating point) collects the source-voltage and offset-charge part.  A
sweep therefore costs one vectorized :func:`~repro.core.rates.orthodox_rate_vec`
call and one sparse-matrix assembly per point instead of a full re-enumeration.

Refreshes are keyed off the :class:`~repro.circuit.netlist.Circuit` version
counters (``bias_version`` / ``charge_version``), so repeated solves at an
unchanged operating point reuse the cached rate vector in O(1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..constants import E_CHARGE
from ..core.energy import EnergyModel
from ..core.rates import orthodox_rate_vec
from .statespace import StateSpace


class TransitionTable:
    """Precomputed transition structure of a circuit on a fixed state window.

    Parameters
    ----------
    model:
        Energy model of the circuit (supplies the event table and the
        capacitance matrices).
    space:
        The charge-state window.  The table is only valid for this window; a
        different window needs a new table.
    temperature:
        Temperature in kelvin, fixed per table (rates depend on it).

    Attributes
    ----------
    pair_source, pair_target, pair_event:
        Parallel ``(P,)`` index arrays: transition ``p`` moves the system from
        state ``pair_source[p]`` to state ``pair_target[p]`` through
        elementary event ``pair_event[p]`` of the model's
        :class:`~repro.core.energy.EventTable`.  Pairs are ordered
        state-major, event-minor (the order the scalar builder used).
    junction_names:
        Junction names in circuit order; `pair_junction` indexes into it.
    """

    def __init__(self, model: EnergyModel, space: StateSpace,
                 temperature: float) -> None:
        self.model = model
        self.space = space
        self.temperature = float(temperature)
        system = model.system
        table = model.table

        states = space.as_array()                      # (S, N)
        state_count, island_count = states.shape
        self.states = states
        self.lows = states.min(axis=0) if state_count else np.zeros(0, np.int64)
        self.highs = states.max(axis=0) if state_count else np.zeros(0, np.int64)
        #: Per-island ``(low, high)`` bounds when the window is a full box
        #: (every window :func:`~repro.master.statespace.build_state_space`
        #: enumerates), else ``None``.
        self.box: Optional[List[Tuple[int, int]]] = None
        if state_count == int(np.prod(self.highs - self.lows + 1)):
            self.box = [(int(low), int(high))
                        for low, high in zip(self.lows, self.highs)]

        # ---- vectorized target lookup ----------------------------------
        # Configurations are encoded with mixed-radix codes over the bounding
        # box of the window; a sorted-code binary search then resolves every
        # (state, event) target at once.  Windows that are full boxes (the
        # common case) hit on every in-box code; ragged windows simply miss.
        spans = (self.highs - self.lows + 1).astype(np.int64)
        strides = np.ones(island_count, dtype=np.int64)
        if island_count > 1:
            strides[1:] = np.cumprod(spans[:-1])
        codes = (states - self.lows) @ strides
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]

        targets = states[:, None, :] + table.delta_n[None, :, :]   # (S, K, N)
        in_box = np.all((targets >= self.lows) & (targets <= self.highs),
                        axis=2)                                    # (S, K)
        target_codes = np.where(in_box[..., None], targets - self.lows, 0) \
            @ strides                                              # (S, K)
        positions = np.searchsorted(sorted_codes, target_codes)
        positions = np.minimum(positions, max(state_count - 1, 0))
        found = in_box & (sorted_codes[positions] == target_codes)

        pair_source, pair_event = np.nonzero(found)        # state-major order
        self.pair_source = pair_source.astype(np.int64)
        self.pair_event = pair_event.astype(np.int64)
        self.pair_target = order[positions[found]].astype(np.int64)
        self.pair_count = int(self.pair_source.size)
        #: Row-major index of each pair's generator entry ``(target, source)``.
        self._flat_pair = self.pair_target * state_count + self.pair_source

        # ---- bias-independent energy ingredients -----------------------
        # pool0 = (C^-1 (-n e), 0 for source terminals): the state-dependent
        # part of the (potentials, voltages) gather pool of EventTable.delta_f.
        source_count = len(system.source_names)
        phi_static = (-E_CHARGE) * (states @ system.inverse.T)     # (S, N)
        pool_static = np.hstack(
            [phi_static, np.zeros((state_count, source_count))])
        self._from_gather = table._from_gather[self.pair_event]
        self._to_gather = table._to_gather[self.pair_event]
        static_drop = (pool_static[self.pair_source, self._from_gather]
                       - pool_static[self.pair_source, self._to_gather])
        #: Bias-independent part of dF per pair (includes reorganisation).
        self.static_energy = E_CHARGE * static_drop + table.reorg[self.pair_event]
        self.resistance = table.resistance[self.pair_event]

        # ---- junction bookkeeping --------------------------------------
        self.junction_names: List[str] = [junction.name for junction
                                          in model.circuit.junctions()]
        junction_column = {name: column for column, name
                           in enumerate(self.junction_names)}
        event_junction = np.array(
            [junction_column[event.junction.name] for event in table.events],
            dtype=np.int64)
        event_direction = np.array([event.direction for event in table.events],
                                   dtype=np.int64)
        self.pair_junction = event_junction[self.pair_event]
        self.pair_direction = event_direction[self.pair_event]
        self._event_junction_names = [event.junction.name
                                      for event in table.events]
        self._event_directions = event_direction

        # Version-keyed cache of the last refreshed rates.
        self._cache_key: Optional[Tuple[int, int]] = None
        self._rate_cache: Optional[np.ndarray] = None
        self._delta_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------- refresh

    def rates(self, voltages: Optional[np.ndarray] = None,
              offsets: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair rates and free-energy changes at an operating point.

        With no explicit overrides the circuit's current bias/offsets are
        used and the result is cached against the circuit version counters:
        repeated calls between bias changes are O(1).

        Returns
        -------
        (rates, delta_f):
            ``(P,)`` arrays aligned with the pair arrays.  Treat them as
            read-only; they may be shared with the cache.
        """
        system = self.model.system
        circuit = self.model.circuit
        explicit = voltages is not None or offsets is not None
        key: Optional[Tuple[int, int]] = None
        if not explicit:
            key = (circuit.bias_version, circuit.charge_version)
            if key == self._cache_key and self._rate_cache is not None:
                return self._rate_cache, self._delta_cache
        if voltages is None:
            voltages = system.cached_source_voltages()
        else:
            voltages = np.asarray(voltages, dtype=float)
        if offsets is None:
            offsets = system.cached_offset_charges()
        else:
            offsets = np.asarray(offsets, dtype=float)

        phi_bias = system.inverse @ (offsets + system.coupling @ voltages)
        pool_bias = np.concatenate([phi_bias, voltages])
        bias_drop = pool_bias[self._from_gather] - pool_bias[self._to_gather]
        delta = self.static_energy + E_CHARGE * bias_drop
        rates = orthodox_rate_vec(delta, self.resistance, self.temperature)
        if key is not None:
            self._cache_key = key
            self._rate_cache = rates
            self._delta_cache = delta
        return rates, delta

    # ------------------------------------------------------------ assembly

    def sparse_generator(self, rates: np.ndarray) -> sparse.csr_matrix:
        """Generator as ``scipy.sparse.csr_matrix`` (columns sum to zero)."""
        live = rates > 0.0
        rows = self.pair_target[live]
        cols = self.pair_source[live]
        values = rates[live]
        size = self.space.size
        matrix = sparse.coo_matrix((values, (rows, cols)),
                                   shape=(size, size)).tocsr()
        outflow = np.bincount(cols, weights=values, minlength=size)
        return (matrix - sparse.diags(outflow)).tocsr()

    def dense_generator(self, rates: np.ndarray) -> np.ndarray:
        """Generator as a dense NumPy array (columns sum to zero).

        Both sums are flat ``bincount`` calls, which add the rates into each
        entry one by one in pair order, starting from zero.
        """
        live = rates > 0.0
        values = rates[live]
        size = self.space.size
        matrix = np.bincount(self._flat_pair[live], weights=values,
                             minlength=size * size)
        outflow = np.bincount(self.pair_source[live], weights=values,
                              minlength=size)
        matrix[::size + 1] -= outflow
        return matrix.reshape(size, size)

    # ---------------------------------------------------------- observables

    def junction_currents(self, probabilities: np.ndarray,
                          rates: np.ndarray) -> Dict[str, float]:
        """Conventional current per junction for a probability vector."""
        flow = rates * probabilities[self.pair_source]
        signed = (-E_CHARGE) * self.pair_direction * flow
        totals = np.bincount(self.pair_junction, weights=signed,
                             minlength=len(self.junction_names))
        return {name: float(totals[column])
                for column, name in enumerate(self.junction_names)}

    def junction_current_series(self, probabilities: np.ndarray,
                                rates: np.ndarray) -> np.ndarray:
        """Currents for a ``(T, S)`` stack of probability vectors.

        Returns ``(T, junction_count)`` with columns in ``junction_names``
        order; used by the transient solver.
        """
        flow = probabilities[:, self.pair_source] * rates[np.newaxis, :]
        signed = (-E_CHARGE) * self.pair_direction * flow
        currents = np.zeros((probabilities.shape[0], len(self.junction_names)))
        np.add.at(currents.T, self.pair_junction, signed.T)
        return currents

    def transitions_list(self, rates: np.ndarray,
                         delta: np.ndarray) -> list:
        """Materialise the legacy ``List[Transition]`` (rate > 0 pairs only)."""
        from .builder import Transition

        live = np.nonzero(rates > 0.0)[0]
        names = self._event_junction_names
        directions = self._event_directions
        return [Transition(
            source_index=int(self.pair_source[p]),
            target_index=int(self.pair_target[p]),
            junction_name=names[self.pair_event[p]],
            electron_direction=int(directions[self.pair_event[p]]),
            rate=float(rates[p]),
            delta_f=float(delta[p]),
        ) for p in live]


__all__ = ["TransitionTable"]
