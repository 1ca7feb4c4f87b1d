"""Free-energy bookkeeping of the orthodox theory.

The orthodox theory of single-electron tunnelling assigns to every charge
configuration ``n`` (the vector of excess electron numbers on the islands) a
free energy; a tunnel event is energetically favourable when it lowers that
free energy.  :class:`EnergyModel` evaluates, without any small-signal
approximation,

* the island potentials,
* the electrostatic energy stored in every capacitor, and
* the free-energy change ``dF`` of an individual tunnel event, accounting for
  the work done by the voltage sources (both the displacement charge pushed
  through source-coupled capacitors and the electron itself whenever a
  junction terminal is a source node).

This exact bookkeeping is what dedicated single-electron simulators such as
SIMON implement and what SPICE macro-models approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.elements import TunnelJunction
from ..circuit.netlist import Circuit
from ..constants import E_CHARGE
from ..errors import CircuitError
from .capacitance import CapacitanceSystem


#: Default electron-number bound of the greedy ground-state walk
#: (:meth:`EnergyModel.ground_state`), from which fresh Monte-Carlo states
#: start.
GROUND_STATE_LIMIT = 5

#: Longest loop of states the greedy walk recognises (a double dot's
#: lead -> dot -> dot -> ground cycle has three).
_LOOP_LENGTH = 4

#: ``e``, ``-e`` and ``0`` as 0-d arrays, the scalar operands of the walk.
_WALK_CONSTANTS = tuple(np.array(value)
                        for value in (E_CHARGE, -E_CHARGE, 0.0))
for _constant in _WALK_CONSTANTS:
    _constant.flags.writeable = False


@dataclass(frozen=True)
class TunnelEvent:
    """One elementary tunnel event: an electron crossing one junction.

    ``direction = +1`` means the electron moves from ``junction.node_a`` to
    ``junction.node_b``; ``-1`` means the reverse.
    """

    junction: TunnelJunction
    direction: int

    def __post_init__(self) -> None:
        if self.direction not in (+1, -1):
            raise CircuitError(f"direction must be +1 or -1, got {self.direction!r}")

    @property
    def source_node(self) -> str:
        """Node the electron leaves."""
        return self.junction.node_a if self.direction == +1 else self.junction.node_b

    @property
    def target_node(self) -> str:
        """Node the electron arrives on."""
        return self.junction.node_b if self.direction == +1 else self.junction.node_a

    def reversed(self) -> "TunnelEvent":
        """The same junction traversed in the opposite direction."""
        return TunnelEvent(self.junction, -self.direction)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TunnelEvent({self.junction.name}: {self.source_node} -> {self.target_node})"


class EventTable:
    """Flattened, array-valued view of every elementary tunnel event.

    At construction each event is decomposed into the quantities that never
    change during a simulation — terminal indices, junction resistance, the
    reorganisation energy ``(e^2/2)(Cinv_ff + Cinv_tt - 2 Cinv_ft)``, the
    electron-number update vector and the island-potential update vector —
    stored as parallel NumPy arrays.  The per-state free-energy changes of
    *all* events then reduce to one gather plus two element-wise expressions
    (:meth:`delta_f`), and applying an event to cached potentials is a single
    vector addition (``potentials += table.delta_phi[k]``).

    The arrays follow the event order of :meth:`EnergyModel.events`.
    """

    def __init__(self, model: "EnergyModel") -> None:
        system = model.system
        island_index = system.island_index
        source_index = system.source_index
        inverse = system.inverse
        n_islands = system.island_count
        events = model.events()

        self.events: Tuple[TunnelEvent, ...] = tuple(events)
        self.size: int = len(events)
        #: Island index of the from/to terminal, ``-1`` for a source terminal.
        self.from_island = np.full(self.size, -1, dtype=np.int64)
        self.to_island = np.full(self.size, -1, dtype=np.int64)
        #: Junction resistance per event, in ohm.
        self.resistance = np.empty(self.size, dtype=float)
        #: Reorganisation energy per event, in joule.
        self.reorg = np.empty(self.size, dtype=float)
        #: Electron-number update per event (``n_after = n + delta_n[k]``).
        self.delta_n = np.zeros((self.size, n_islands), dtype=np.int64)
        #: Island-potential update per event (``phi_after = phi + delta_phi[k]``).
        self.delta_phi = np.zeros((self.size, n_islands), dtype=float)
        # Gather indices into the concatenated (potentials, voltages) pool.
        self._from_gather = np.empty(self.size, dtype=np.int64)
        self._to_gather = np.empty(self.size, dtype=np.int64)
        #: Width of a stack's (potentials, voltages) pool row.
        self._width = n_islands + len(system.source_names)
        #: :meth:`stacked_tiles` per stack height: views into ``_tallest``,
        #: the tiles of the tallest stack so far, so the cache stays small
        #: however many heights are evaluated.
        self._tiles: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._tallest: Tuple[np.ndarray, ...] = ()

        for k, event in enumerate(events):
            from_node = event.source_node
            to_node = event.target_node
            if from_node in island_index:
                f = island_index[from_node]
                self.from_island[k] = f
                self._from_gather[k] = f
                inv_ff = inverse[f, f]
                self.delta_n[k, f] -= 1
                self.delta_phi[k] += E_CHARGE * inverse[:, f]
            else:
                f = -1
                self._from_gather[k] = n_islands + source_index[from_node]
                inv_ff = 0.0
            if to_node in island_index:
                t = island_index[to_node]
                self.to_island[k] = t
                self._to_gather[k] = t
                inv_tt = inverse[t, t]
                self.delta_n[k, t] += 1
                self.delta_phi[k] -= E_CHARGE * inverse[:, t]
            else:
                t = -1
                self._to_gather[k] = n_islands + source_index[to_node]
                inv_tt = 0.0
            inv_ft = inverse[f, t] if f >= 0 and t >= 0 else 0.0
            self.reorg[k] = 0.5 * E_CHARGE**2 * (inv_ff + inv_tt - 2.0 * inv_ft)
            self.resistance[k] = event.junction.resistance

    def stacked_tiles(self, rows: int) -> Tuple[np.ndarray, ...]:
        """Per-event arrays tiled to a stack of ``rows`` rows.

        Returns the flat indices of every event's from and to terminal in a
        ``(rows, islands + sources)`` pool (row by row), and the
        reorganisation energies and junction resistances repeated ``rows``
        times.  The arrays are read-only views into the tiles of the tallest
        stack requested so far.
        """
        tiles = self._tiles.get(rows)
        if tiles is None:
            count = rows * self.size
            if not self._tallest or self._tallest[0].size < count:
                starts = np.arange(rows)[:, None] * self._width
                self._tallest = ((starts + self._from_gather).ravel(),
                                 (starts + self._to_gather).ravel(),
                                 np.tile(self.reorg, rows),
                                 np.tile(self.resistance, rows))
                for tile in self._tallest:
                    tile.flags.writeable = False
                self._tiles.clear()
            tiles = self._tiles[rows] = tuple(tile[:count]
                                              for tile in self._tallest)
        return tiles

    def delta_f(self, potentials: np.ndarray,
                voltages: np.ndarray) -> np.ndarray:
        """Free-energy change of every event, given the island potentials.

        Element ``k`` equals
        :meth:`EnergyModel.free_energy_change_from_potentials` for event ``k``
        exactly (the same floating-point operations in the same order).
        ``potentials`` may also be a ``(rows, islands)`` stack of potential
        vectors, and ``voltages`` then either one source vector shared by
        every row or a ``(rows, sources)`` stack of per-row source vectors;
        each output row equals the single-vector result of its own
        potentials and voltages.  A stack's terminals are gathered from one
        flat pool of every row's potentials followed by its source voltages.
        """
        if potentials.ndim == 1:
            pool = np.concatenate((potentials, voltages))
            return E_CHARGE * (pool[self._from_gather]
                               - pool[self._to_gather]) + self.reorg
        rows, islands = potentials.shape
        from_index, to_index, reorg, _ = self.stacked_tiles(rows)
        pool = np.empty((rows, self._width))
        pool[:, :islands] = potentials
        pool[:, islands:] = voltages
        flat = pool.ravel()
        out = flat[from_index] - flat[to_index]
        out *= E_CHARGE
        out += reorg
        return out.reshape(rows, self.size)


def _loop_periods(trail: List[np.ndarray], candidate: np.ndarray,
                  moves: np.ndarray) -> np.ndarray:
    """Length of the loop each moving point's next state closes, else 0.

    ``trail[-k]`` is where the stack stood ``k - 1`` events before the
    candidates; a candidate equal to ``trail[-k]`` closes a loop of ``k``
    states.  Only loops of up to :data:`_LOOP_LENGTH` states are seen.
    """
    periods = np.zeros(len(candidate), dtype=np.int64)
    for length in range(min(_LOOP_LENGTH, len(trail)), 1, -1):
        periods[moves & np.all(candidate == trail[-length], axis=1)] = length
    return periods


def _looped(trail: List[np.ndarray], periods: np.ndarray,
            ahead: int) -> np.ndarray:
    """Where each point stands ``ahead`` events after ``trail[-1]``.

    A point with a loop of ``k`` states repeats ``trail[-k:]``; a point
    with none (its walk has ended) stays at ``trail[-1]``.
    """
    position = trail[-1].copy()
    for length in np.unique(periods[periods > 0]).tolist():
        looping = periods == length
        position[looping] = trail[(ahead - 1) % length - length][looping]
    return position


class EnergyModel:
    """Exact electrostatic free-energy model of a single-electron circuit.

    Parameters
    ----------
    circuit:
        The circuit to model.  Source voltages and offset charges are read
        from the circuit at call time unless explicitly overridden, so a
        voltage sweep or a trap flipping an offset charge does not require
        rebuilding the model.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.system = CapacitanceSystem(circuit)
        self.junctions: List[TunnelJunction] = circuit.junctions()
        self._events: List[TunnelEvent] = []
        for junction in self.junctions:
            self._events.append(TunnelEvent(junction, +1))
            self._events.append(TunnelEvent(junction, -1))
        self._table: Optional[EventTable] = None

    # ------------------------------------------------------------- basic maps

    @property
    def island_count(self) -> int:
        """Number of islands (length of the electron-number vector)."""
        return self.system.island_count

    def island_index(self, name: str) -> int:
        """Index of island ``name`` in the electron-number vector."""
        return self.system.island_index[name]

    def zero_state(self) -> np.ndarray:
        """The all-neutral electron-number vector."""
        return np.zeros(self.island_count, dtype=np.int64)

    def events(self) -> List[TunnelEvent]:
        """All elementary tunnel events (two per junction)."""
        return list(self._events)

    @property
    def table(self) -> EventTable:
        """Precomputed :class:`EventTable` over :meth:`events` (built lazily)."""
        if self._table is None:
            self._table = EventTable(self)
        return self._table

    # --------------------------------------------------------------- charges

    def island_charges(self, electrons: Sequence[int],
                       offsets: Optional[np.ndarray] = None) -> np.ndarray:
        """Free charge ``q = -n e + q0`` on each island, in coulomb."""
        n = np.asarray(electrons, dtype=float)
        if n.shape != (self.island_count,):
            raise CircuitError(
                f"electron vector must have length {self.island_count}, got shape {n.shape}"
            )
        if offsets is None:
            offsets = self.system.offset_charge_vector()
        return -n * E_CHARGE + offsets

    def island_potentials(self, electrons: Sequence[int],
                          voltages: Optional[np.ndarray] = None,
                          offsets: Optional[np.ndarray] = None) -> np.ndarray:
        """Island potentials in volt for a given electron configuration."""
        charges = self.island_charges(electrons, offsets)
        return self.system.island_potentials(charges, voltages)

    def stored_energy(self, electrons: Sequence[int],
                      voltages: Optional[np.ndarray] = None,
                      offsets: Optional[np.ndarray] = None) -> float:
        """Electrostatic energy stored in all capacitors, in joule."""
        charges = self.island_charges(electrons, offsets)
        return self.system.stored_energy(charges, voltages)

    # ---------------------------------------------------------- event algebra

    def apply_event(self, electrons: np.ndarray, event: TunnelEvent) -> np.ndarray:
        """Electron-number vector after ``event`` (input is not modified)."""
        updated = np.array(electrons, dtype=np.int64, copy=True)
        source = event.source_node
        target = event.target_node
        if source in self.system.island_index:
            updated[self.system.island_index[source]] -= 1
        if target in self.system.island_index:
            updated[self.system.island_index[target]] += 1
        return updated

    def free_energy_change(self, electrons: Sequence[int], event: TunnelEvent,
                           voltages: Optional[np.ndarray] = None,
                           offsets: Optional[np.ndarray] = None) -> float:
        """Free-energy change ``dF`` (joule) of one tunnel event.

        Negative values mean the event releases energy and is allowed at zero
        temperature.  The closed-form expression

        ``dF = e (phi_from - phi_to) + (e^2/2) (Cinv_ff + Cinv_tt - 2 Cinv_ft)``

        is used, where ``phi`` is the node potential before the event (a
        source node contributes its fixed voltage and zero to the ``Cinv``
        terms).  It is mathematically identical to the explicit
        stored-energy-minus-source-work accounting implemented in
        :meth:`free_energy_change_bookkeeping`, which the test-suite uses as
        an independent cross-check.
        """
        if voltages is None:
            voltages = self.system.source_voltage_vector()
        if offsets is None:
            offsets = self.system.offset_charge_vector()
        potentials = self.island_potentials(electrons, voltages, offsets)
        return self.free_energy_change_from_potentials(potentials, event, voltages)

    def free_energy_change_from_potentials(self, potentials: np.ndarray,
                                           event: TunnelEvent,
                                           voltages: Optional[np.ndarray] = None
                                           ) -> float:
        """Free-energy change of ``event`` given precomputed island potentials.

        Useful when many events are evaluated from the same charge
        configuration (the Monte-Carlo kernel and the master-equation builder
        compute the potentials once per state and reuse them here).
        """
        if voltages is None:
            voltages = self.system.source_voltage_vector()
        source_lookup = dict(zip(self.system.source_names, voltages))
        island_index = self.system.island_index
        inverse = self.system.inverse

        from_node = event.source_node
        to_node = event.target_node

        if from_node in island_index:
            index_from = island_index[from_node]
            phi_from = potentials[index_from]
            inv_ff = inverse[index_from, index_from]
        else:
            index_from = -1
            phi_from = source_lookup[from_node]
            inv_ff = 0.0
        if to_node in island_index:
            index_to = island_index[to_node]
            phi_to = potentials[index_to]
            inv_tt = inverse[index_to, index_to]
        else:
            index_to = -1
            phi_to = source_lookup[to_node]
            inv_tt = 0.0
        inv_ft = inverse[index_from, index_to] if index_from >= 0 and index_to >= 0 \
            else 0.0

        reorganisation = 0.5 * E_CHARGE**2 * (inv_ff + inv_tt - 2.0 * inv_ft)
        return float(E_CHARGE * (phi_from - phi_to) + reorganisation)

    def free_energy_change_bookkeeping(self, electrons: Sequence[int],
                                       event: TunnelEvent,
                                       voltages: Optional[np.ndarray] = None,
                                       offsets: Optional[np.ndarray] = None) -> float:
        """Free-energy change via explicit stored-energy / source-work accounting.

        ``dF = dE_stored - W_sources`` where ``W_sources`` is the work
        performed by the voltage sources during the event: the displacement
        charge they push through their coupling capacitors plus ``-e V`` /
        ``+e V`` when the electron leaves from / arrives at a source node held
        at ``V``.  Slower than :meth:`free_energy_change` but derived
        independently; the two must agree to numerical precision.
        """
        if voltages is None:
            voltages = self.system.source_voltage_vector()
        if offsets is None:
            offsets = self.system.offset_charge_vector()

        n_before = np.asarray(electrons, dtype=np.int64)
        n_after = self.apply_event(n_before, event)

        charges_before = self.island_charges(n_before, offsets)
        charges_after = self.island_charges(n_after, offsets)

        phi_before = self.system.island_potentials(charges_before, voltages)
        phi_after = self.system.island_potentials(charges_after, voltages)

        energy_before = self.system.stored_energy(charges_before, voltages)
        energy_after = self.system.stored_energy(charges_after, voltages)
        delta_stored = energy_after - energy_before

        # Work by sources: displacement charge through island-source capacitors.
        delta_phi = phi_after - phi_before
        if self.island_count:
            displacement_per_source = -(self.system.coupling.T @ delta_phi)
            work = float(np.dot(voltages, displacement_per_source))
        else:
            work = 0.0

        # Work by sources: the tunnelling electron itself.
        source_voltages = dict(zip(self.system.source_names, voltages))
        from_node = event.source_node
        to_node = event.target_node
        if from_node in source_voltages:
            work += source_voltages[from_node] * (-E_CHARGE)
        if to_node in source_voltages:
            work += source_voltages[to_node] * (+E_CHARGE)

        return float(delta_stored - work)

    def event_delta_f(self, electrons: Sequence[int],
                      voltages: Optional[np.ndarray] = None,
                      offsets: Optional[np.ndarray] = None) -> np.ndarray:
        """Free-energy change of every elementary event, as one vector.

        The vectorized fast path: island potentials are solved once and the
        precomputed :attr:`table` turns them into the ``dF`` of all events at
        once.  Element ``k`` corresponds to ``self.events()[k]``.
        """
        if voltages is None:
            voltages = self.system.source_voltage_vector()
        potentials = self.island_potentials(electrons, voltages, offsets)
        return self.table.delta_f(potentials, voltages)

    def event_energies(self, electrons: Sequence[int],
                       voltages: Optional[np.ndarray] = None,
                       offsets: Optional[np.ndarray] = None
                       ) -> List[Tuple[TunnelEvent, float]]:
        """``(event, dF)`` for every elementary event from configuration ``electrons``.

        The island potentials are computed once and turned into all ``dF``
        values through the vectorized :attr:`table`.
        """
        deltas = self.event_delta_f(electrons, voltages, offsets)
        return [(event, float(delta)) for event, delta in zip(self._events, deltas)]

    def is_stable(self, electrons: Sequence[int],
                  voltages: Optional[np.ndarray] = None,
                  offsets: Optional[np.ndarray] = None,
                  tolerance: float = 0.0) -> bool:
        """Whether no single tunnel event lowers the free energy (T = 0 stability)."""
        deltas = self.event_delta_f(electrons, voltages, offsets)
        return bool(np.all(deltas > -abs(tolerance)))

    def ground_state(self, max_electrons: int = GROUND_STATE_LIMIT,
                     voltages: Optional[np.ndarray] = None,
                     offsets: Optional[np.ndarray] = None) -> np.ndarray:
        """Greedy T = 0 ground-state search.

        Starting from the neutral configuration, repeatedly apply the most
        energy-lowering single tunnel event until the configuration is stable
        or electron numbers exceed ``max_electrons`` in magnitude.  For the
        single- and double-island circuits used throughout the package this
        finds the true ground state; for larger circuits it is a good starting
        configuration for the stochastic simulators.
        """
        return self.ground_states((max_electrons,), voltages, offsets)[0]

    def ground_states(self, limits: Sequence[int],
                      voltages: Optional[np.ndarray] = None,
                      offsets: Optional[np.ndarray] = None
                      ) -> List[np.ndarray]:
        """Where one greedy walk stops under each of several electron limits.

        Element ``i`` equals ``ground_state(limits[i], voltages, offsets)``
        exactly.  A walk under a smaller limit (and so a smaller step budget
        ``(2 limit + 1) ** islands``) is a prefix of the walk under a larger
        one, so a single walk under the largest limit records every stop
        point.  The source voltages, offset charges and ``B V`` are fixed
        for the walk; each step performs the same floating-point operations
        as :meth:`event_delta_f`.

        ``voltages`` may also be a ``(points, sources)`` stack.  One walk then
        steps every point at once, each point stopping on its own, and
        element ``i`` is a ``(points, islands)`` array whose row ``p`` equals
        the walk at ``voltages[p]``.  The matrix-vector products run per
        point (``np.matmul`` over a stack of column vectors), so no point's
        bits depend on the stack around it.
        """
        system = self.system
        if voltages is None:
            voltages = system.cached_source_voltages()
        if offsets is None:
            offsets = system.cached_offset_charges()
        stack = np.atleast_2d(np.asarray(voltages, dtype=float))
        offsets = np.asarray(offsets, dtype=float)
        # The walk carries electron numbers as floats (exact integers), so
        # -n e multiplies the same doubles as -float(n) * e.
        stops = np.zeros((len(limits), stack.shape[0], self.island_count))
        if self._events:
            self._walk(stack, offsets, limits, stops)
        stops = stops.astype(np.int64)
        return list(stops) if np.ndim(voltages) == 2 else list(stops[:, 0])

    def _walk(self, stack: np.ndarray, offsets: np.ndarray,
              limits: Sequence[int], stops: np.ndarray) -> None:
        """The greedy walk of :meth:`ground_states` over a voltage stack.

        Fills ``stops[i]`` with where each point's walk stops under
        ``limits[i]``.  Every step evaluates the whole stack: a point whose
        walk has ended stays where it is, and its next step takes the same
        decision again.  Once every moving point goes round a loop of at
        most :data:`_LOOP_LENGTH` states, the walk stops stepping: the
        remaining steps would only repeat the loop.
        """
        table = self.table
        system = self.system
        points, islands = stack.shape[0], self.island_count
        position = np.zeros((points, islands))
        stopped = np.zeros((len(limits), points), dtype=bool)
        bias = np.matmul(system.coupling, stack[..., np.newaxis])[..., 0]
        pool = np.empty((points, islands + stack.shape[1]))
        pool[:, islands:] = stack
        potentials = pool[:, :islands, np.newaxis]
        # Row and 0-d operands keep numpy on its quickest loops.
        offsets = offsets[np.newaxis]
        reorg = table.reorg[np.newaxis]
        steps = table.delta_n.astype(float)
        electron, charge, zero = _WALK_CONSTANTS
        lowest, top = min(limits), max(limits)
        budgets = [(2 * limit + 1) ** max(1, islands) for limit in limits]
        last = max(budgets)
        trail = [position]        # where the stack stood, latest last
        for step in range(last):
            if step in budgets:
                for index, budget in enumerate(budgets):
                    if step == budget:
                        stops[index][~stopped[index]] = \
                            position[~stopped[index]]
                        stopped[index] = True
            # event_delta_f: phi = C^-1 ((-n e + q0) + B V), then the table.
            charges = position * charge
            charges += offsets
            charges += bias
            np.matmul(system.inverse, charges[..., np.newaxis],
                      out=potentials)
            deltas = pool.take(table._from_gather, axis=1)
            deltas -= pool.take(table._to_gather, axis=1)
            deltas *= electron
            deltas += reorg
            moves = np.minimum.reduce(deltas, axis=1) >= zero
            np.logical_not(moves, out=moves)
            if not np.count_nonzero(moves):
                break
            candidate = steps.take(deltas.argmin(axis=1), axis=0)
            candidate += position
            # An event moves each electron number by at most one, so a
            # candidate can pass a limit only from step ``lowest`` on.
            if step >= lowest:
                reach = np.abs(candidate)
                farthest = float(np.maximum.reduce(reach, axis=None,
                                                   initial=0.0))
                if farthest > lowest:
                    reach = reach.max(axis=1, initial=0.0)
                    for index, limit in enumerate(limits):
                        if farthest > limit:
                            leaving = moves & (reach > limit) \
                                & ~stopped[index]
                            stops[index][leaving] = position[leaving]
                            stopped[index] |= leaving
                    moves &= reach <= top
                    if not np.count_nonzero(moves):
                        break
                # A biased circuit conducts: its walk goes round a loop of
                # states (in through one junction, out through another)
                # until the budgets run out.  The next state depends only
                # on the state, so once every moving point closes a loop,
                # where each budget leaves it follows from the loop.
                periods = _loop_periods(trail, candidate, moves)
                if np.count_nonzero(periods) == np.count_nonzero(moves):
                    for index, budget in enumerate(budgets):
                        if step < budget < last:
                            looped = _looped(trail, periods, budget - step)
                            stops[index][~stopped[index]] = \
                                looped[~stopped[index]]
                            stopped[index] = True
                    position = _looped(trail, periods, last - step)
                    break
            position = np.where(moves[:, np.newaxis], candidate, position)
            trail = trail[1 - _LOOP_LENGTH:] + [position]
        np.copyto(stops, position, where=~stopped[..., np.newaxis])

    # --------------------------------------------------- closed-form helpers

    def quadratic_free_energy(self, electrons: Sequence[int],
                              voltages: Optional[np.ndarray] = None,
                              offsets: Optional[np.ndarray] = None) -> float:
        """Closed-form free energy ``1/2 q C^-1 q + q C^-1 q_ext`` in joule.

        This textbook expression differs from the exact accounting only by
        terms independent of the electron configuration, so *differences*
        between configurations match the exact model whenever the involved
        tunnel events do not exchange electrons with a biased source node
        (e.g. ground-state searches of electron boxes and pumps).  It is kept
        as an independent cross-check used by the test-suite.
        """
        if voltages is None:
            voltages = self.system.source_voltage_vector()
        if offsets is None:
            offsets = self.system.offset_charge_vector()
        charges = self.island_charges(electrons, offsets)
        external = self.system.external_charge(voltages)
        inverse = self.system.inverse
        return float(0.5 * charges @ inverse @ charges + charges @ inverse @ external)


__all__ = ["GROUND_STATE_LIMIT", "EnergyModel", "EventTable", "TunnelEvent"]
