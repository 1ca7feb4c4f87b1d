"""The kinetic Monte-Carlo kernel: rate evaluation and event selection.

The kernel implements the classic rejection-free (Gillespie / BKL) algorithm:

1. enumerate every possible event from the current state and its rate,
2. draw the waiting time from an exponential distribution with the total rate,
3. pick one event with probability proportional to its rate and apply it.

All events are evaluated through precomputed array tables: the free-energy
changes of every tunnel event come from one gather over the island potentials
(:class:`~repro.core.energy.EventTable`), the rates from the array-valued
:func:`~repro.core.rates.orthodox_rate_vec` /
:func:`~repro.core.rates.cotunneling_rate_vec`, and event selection from a
single pass over the cumulative rate table.  Because the rates depend only on
the charge configuration (the process is Markovian), every visited
configuration is memoised as a :class:`_RateEntry` holding its island
potentials, its cumulative rate table and links to the successor entries of
each event.  Island potentials of a newly discovered configuration are
obtained *incrementally* from the parent entry — the event's precomputed
``delta_phi`` column combination of ``C^-1`` — instead of a full linear solve;
a full re-solve every ``resync_interval`` new entries bounds floating-point
drift.  The memo is invalidated on source-voltage or offset changes (detected
in O(1) through the circuit's version counters).  Waiting-time and selection
randoms are drawn in blocks rather than one scalar at a time.

A charge trap is one more configuration column (``1`` while it holds an
electron) and two more events, its capture (``+1`` on that column) and its
emission (``-1``), each with rate zero in the state where it cannot fire:
the memo key is the configuration's bytes, and a zero-rate column adds an
exact ``+0.0`` to the cumulative rate row.  A flip's successor is solved
exactly under its own trap state's offset charges.

After a bias change the root configurations of a run — the replicas' current
configurations — get their rate tables together with *speculated* tables of
their one-event successors (root potentials plus every event's
``delta_phi``, one broadcast add).  During a sweep the kernel holds the
source vectors of every point (:meth:`MonteCarloKernel.plan_sweep`), so
those rows are evaluated **once per root configuration per block of**
:data:`PLAN_BLOCK_POINTS` **points**, in one stacked evaluation over the
block, rather than once per point; outside a sweep, or where the plan does
not hold, a point's roots share one stacked evaluation at the point.  Every
rate is an element-wise function of its own row, and a root's potentials
at a point come from one expression whether it is solved alone or in a
block (:meth:`MonteCarloKernel._potentials`), so a planned row equals the
row the point would evaluate, bit for bit.  A root Python answers adopts
its planned rows when the planned potentials equal its exactly solved ones
byte for byte (a block enters the loop's native mirror of the plan only
when they did at the point that planned it), and a successor discovered
later adopts its speculated table, whose potentials are its incrementally
derived ones; so discovery order, the resync counter and the memo cap
behave exactly as with one lazy evaluation per discovery.

Every run goes through :meth:`MonteCarloKernel.run_phases`: the advance
loop of
:mod:`repro.montecarlo.jit` (numba, C, or the interpreted reference loop,
whichever :func:`~repro.montecarlo.jit.resolve_advance` loads) advances
``R`` replicas one after another — a trajectory is a one-replica ensemble —
over dense mirrors of the memoised entries, at one bias point or at every
point of a sweep.  Replicas in the same charge configuration share one
:class:`_RateEntry`, so the rate-table cost is paid once per
*configuration* rather than once per replica.  A sweep is one run: the
loop carries the replicas from point to point and roots each point from
the plan mirror itself — it re-keys the cursor to the replicas' planned
roots and registers their speculated successors as it meets them,
counting the resync interval and the memo cap in registers.  Python
answers a point (:meth:`MonteCarloKernel._next_point`: one exact solve per
root, the plan's rows adopted where they hold, the cursor re-keyed in
place) only where a root has no plan block yet, or at every point while a
fault injector is active, and builds a loop-registered slot's
:class:`_RateEntry` only when it needs it.  Inside a point, a transition
to a configuration already met at that point is linked by the loop itself;
only another discovery returns to Python; a hooked run's loop also
writes an event log.  The loop consumes the block random buffers exactly
as the per-event step loop it replaced did (the test-suite keeps it as
its oracle), so a single-replica run replays that loop event for event.

The kernel is kept apart from the user-facing
:class:`~repro.montecarlo.simulator.MonteCarloSimulator`, its one caller:
the simulator owns the seed policy, circuit validation, sweeps and
estimators, the kernel the rates, the memo and the loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..constants import E_CHARGE
from ..core.energy import EnergyModel
from ..core.rates import cotunneling_rate_vec, orthodox_rate_vec
from ..errors import SimulationError
from ..resilience.faults import active_injector, inject
from .cotunneling import CotunnelTable, enumerate_cotunnel_candidates
from .events import CotunnelCandidate, TrapCandidate, TunnelCandidate
from .jit import (
    ARG_CONFIGURATIONS,
    ARG_COUNTS,
    ARG_CUMULATIVE,
    ARG_DELTA_N,
    ARG_EXP,
    ARG_FREG,
    ARG_IREG,
    ARG_LAST,
    ARG_LOG,
    ARG_PHASE_COUNTS,
    ARG_PHASE_TIMES,
    ARG_PHASE_TRANSFERS,
    ARG_PLAN_BLOCKS,
    ARG_PLAN_CONFIGURATIONS,
    ARG_PLAN_CUMULATIVE,
    ARG_PLAN_LAST,
    ARG_PLAN_POINTS,
    ARG_PLAN_TOTALS,
    ARG_ROOTS,
    ARG_SCHEDULE,
    ARG_SLOT_ROWS,
    ARG_SLOTS,
    ARG_STARTS,
    ARG_SUCCESSORS,
    ARG_TIMES,
    ARG_TOTALS,
    ARG_TRANSFER_MATRIX,
    ARG_TRANSFERS,
    ARG_UNIFORM,
    BACKEND_PYTHON,
    FREG_DURATION,
    FREG_SIZE,
    IREG_SIZE,
    REG_EXP_POS,
    REG_LOADED,
    REG_LOG,
    REG_LOOP_ROOTED,
    REG_MEMO_LIMIT,
    REG_PENDING_EVENT,
    REG_PHASE,
    REG_PLANNED,
    REG_POINT,
    REG_REGISTERED,
    REG_REPLICA,
    REG_RESYNC,
    REG_RESYNC_INTERVAL,
    REG_ROOTED,
    REG_SLOT,
    REG_UNI_POS,
    STATUS_LOG_FULL,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_ROOTS,
    STATUS_NEED_UNIFORM,
    LoopArguments,
    resolve_advance,
)
from .state import EnsembleState

#: Event budget of a phase limited only by time (or by a blockade).
UNBOUNDED_EVENTS = 1 << 62

#: Sweep points one plan block evaluates a root configuration's rows for
#: (:meth:`MonteCarloKernel._plan_block`).  A block is one stacked rate
#: evaluation whose cost is mostly numpy call overhead: over 41-64 points
#: it costs two to three one-point evaluations, so a configuration that
#: stays a root for a few points pays it back.  Timing the block shapes of 129-point
#: reference-SET sweeps and of the 41-point double dot, blocks of 64 cost
#: 0-20% more than one unbounded block per configuration and less than
#: blocks of 4-32, while they bound the plan's memory: at most one block,
#: 64 x (events + 1) rows, per root configuration of the current window.
PLAN_BLOCK_POINTS = 64


class PhaseRecord:
    """Replica state at every boundary of a phased run, at every point.

    A phased run advances ``R`` replicas through a *schedule* of per-replica
    event budgets, phase-major (every replica finishes phase ``p`` before
    any starts ``p + 1``), at each of ``points`` bias points in turn.
    ``stacks`` holds the ``(points, phases + 1, replicas)`` clocks and
    event counts and the ``(points, phases + 1, replicas, junctions)``
    transfer rows: row ``0`` of a point holds each replica's clock, event
    count and per-junction transfer row at its start (the caller writes
    point 0's, the loop zeroes the later ones), row ``p + 1`` the same at
    the end of phase ``p`` — so a phase's duration, events and transferred
    charge are row differences.  ``times``/``counts``/``transfers`` are the
    first point's rows (all of a one-point run).  ``point``/``phase``/
    ``replica`` record how far a run got: replicas below ``replica`` have
    finished phase ``phase`` of point ``point``, the others only the phases
    before it (``phase == len(schedule)`` at the last point once complete);
    ``rooted`` is whether point ``point``'s rate tables were in place.
    """

    __slots__ = ("key", "schedule", "stacks", "times", "counts", "transfers",
                 "point", "phase", "replica", "rooted")

    def __init__(self, schedule: Sequence[int], replicas: int,
                 junctions: int, points: int = 1) -> None:
        self.key = (tuple(schedule), replicas, points)
        self.schedule = np.array(schedule, dtype=np.int64)
        rows = self.schedule.size + 1
        self.stacks = (np.zeros((points, rows, replicas)),
                       np.zeros((points, rows, replicas), dtype=np.int64),
                       np.zeros((points, rows, replicas, junctions)))
        self.times, self.counts, self.transfers = (stack[0]
                                                   for stack in self.stacks)
        self.point = self.phase = self.replica = 0
        self.rooted = 1

    def store(self, row: int, times, counts, transfers,
              point: int = 0) -> None:
        """Snapshot the replicas' clocks, counts and transfer rows."""
        stack_times, stack_counts, stack_transfers = self.stacks
        stack_times[point, row] = times
        stack_counts[point, row] = counts
        stack_transfers[point, row] = transfers


class _EnsembleCursor:
    """Per-ensemble bookkeeping linking replicas to memoised rate entries.

    ``slots[r]`` is the index of replica ``r``'s configuration in
    ``entries``, the entries registered since the last :meth:`reset`;
    ``slot_of`` maps ``id(entry)`` back to its slot, so an entry is
    registered once.  The per-slot data (total rates, cumulative tables,
    last-selectable indices, successor slots, configurations) is mirrored
    into dense arrays on registration, which are what the advance loop
    reads: it selects events from a slot's cumulative row and follows
    ``successor_slots``.  An unlinked transition to a configuration already
    registered is linked inside the loop; a new configuration returns to
    Python (:meth:`MonteCarloKernel._link_compiled`) unless the loop
    registers it from the sweep plan itself.  Slots the loop registers
    (a sweep point's planned roots and their speculated successors) record
    their plan-mirror row in ``slot_rows`` (``-1`` for a slot registered
    here) and hold ``None`` in ``entries`` until Python needs their entry
    (:meth:`MonteCarloKernel._loop_entry`).  The mirrors grow by capacity
    doubling and survive :meth:`reset`, so the loop keeps receiving the
    same array objects.  The cursor is valid for one kernel cache epoch; a
    bias/offset change re-keys it (detected through ``epoch``).
    """

    __slots__ = ("epoch", "slots", "entries", "slot_of", "n_events",
                 "width", "totals", "cumulative", "last_selectable",
                 "successor_slots", "configurations", "slot_rows", "seen")

    def __init__(self, n_events: int, width: int) -> None:
        self.n_events = n_events
        self.width = width
        self.totals = np.empty(0)
        self.cumulative = np.empty((0, n_events))
        self.last_selectable = np.empty(0, dtype=np.int64)
        #: ``successor_slots[s, k]`` is the slot reached from slot ``s`` via
        #: event ``k``, or ``-1`` when that transition has not been taken yet.
        self.successor_slots = np.empty((0, n_events), dtype=np.int64)
        #: ``configurations[s]`` is slot ``s``'s canonical configuration
        #: (the island electron numbers, then the trap occupations).
        self.configurations = np.empty((0, width), dtype=np.int64)
        self.slot_rows = np.empty(0, dtype=np.int64)
        self.entries: List[Optional["_RateEntry"]] = []
        #: Bytes of ``ensemble.electrons`` as the kernel last left them
        #: (always ``configurations[slots]``): a caller editing the public
        #: ``EnsembleState.electrons`` between runs changes them, which
        #: forces a full re-key instead of stepping replicas with the rate
        #: tables of their old configurations.
        self.seen = b""
        self.slots = np.empty(0, dtype=np.int64)
        self.epoch = -1

    def reset(self, epoch: int, entries: List["_RateEntry"],
              inverse: np.ndarray) -> None:
        """Re-key the cursor to the root ``entries`` of a new epoch, in place.

        Replica ``r`` takes the slot of ``entries[inverse[r]]``.  The links
        of every slot registered since the last reset are cleared and slots
        are handed out afresh from ``0``.  The slot array is updated in place
        when its length is unchanged, so the loop keeps receiving the same
        array object.
        """
        self.successor_slots[:len(self.entries)] = -1
        self.epoch = epoch
        self.entries = []
        self.slot_of: dict = {}
        root_slots = [self.register(entry) for entry in entries]
        if self.slots.shape != inverse.shape:
            self.slots = np.empty(inverse.shape, dtype=np.int64)
        if len(root_slots) == 1:
            self.slots.fill(root_slots[0])
        else:
            np.take(root_slots, inverse, out=self.slots)

    def register(self, entry: "_RateEntry") -> int:
        """Slot of ``entry``, assigning (and mirroring) one on first sight."""
        slot = self.slot_of.get(id(entry))
        if slot is not None:
            return slot
        slot = len(self.entries)
        self._reserve(slot + 1)
        self.totals[slot] = entry.total
        self.cumulative[slot, :entry.cumulative.size] = entry.cumulative
        self.last_selectable[slot] = entry.last_selectable
        self.configurations[slot] = entry.electrons
        self.slot_rows[slot] = -1
        self.entries.append(entry)
        self.slot_of[id(entry)] = slot
        return slot

    def _reserve(self, count: int) -> None:
        """Grow the mirrors to hold at least ``count`` slots."""
        capacity = self.totals.size
        if count <= capacity:
            return
        capacity = max(count, 2 * capacity, 4)
        totals = np.zeros(capacity)
        # Pad with +inf so a padded column can never be counted by the
        # threshold comparison (every entry fills its row).
        cumulative = np.full((capacity, self.n_events), np.inf)
        last = np.full(capacity, -1, dtype=np.int64)
        successors = np.full((capacity, self.n_events), -1, dtype=np.int64)
        configurations = np.zeros((capacity, self.width), dtype=np.int64)
        slot_rows = np.full(capacity, -1, dtype=np.int64)
        known = self.totals.size
        totals[:known] = self.totals
        cumulative[:known] = self.cumulative
        last[:known] = self.last_selectable
        successors[:known] = self.successor_slots
        configurations[:known] = self.configurations
        slot_rows[:known] = self.slot_rows
        self.totals = totals
        self.cumulative = cumulative
        self.last_selectable = last
        self.successor_slots = successors
        self.configurations = configurations
        self.slot_rows = slot_rows


class _RateEntry:
    """Memoised per-configuration rate data.

    ``electrons`` is the canonical configuration vector (never handed out
    without a copy), ``phi`` its island potentials, ``cumulative``/``total``
    the inclusive rate table used for event selection, and ``successors`` the
    lazily linked entries reached by each tunnel / co-tunnel event.  A root
    entry of a stacked build also carries ``speculation``: the stack's
    cumulative rows, totals and last-selectable indices, and the stack row
    of its event-0 successor (event ``k``'s is ``k`` rows on; ``None``
    otherwise).
    """

    __slots__ = ("electrons", "phi", "cumulative", "total", "last_selectable",
                 "successors", "speculation")

    def __init__(self, electrons: np.ndarray, phi: np.ndarray,
                 cumulative: np.ndarray, total: float, last_selectable: int,
                 n_events: int) -> None:
        self.electrons = electrons
        self.phi = phi
        self.cumulative = cumulative
        self.total = total
        self.last_selectable = last_selectable
        self.successors: List[Optional["_RateEntry"]] = [None] * n_events
        self.speculation: Optional[tuple] = None


class _SweepPlan:
    """The source voltages of a running sweep, its planned root rows and
    their native mirror.

    ``voltages`` holds the sweep's distinct source vectors in order of first
    appearance, ``points`` maps each one's bytes to its index (a *plan
    index*) and ``indices`` holds the plan index of every row of ``source``,
    the stack the plan was made for.  ``blocks`` maps a root configuration's
    memo key to the block of plan indices planned for it: ``(start, stop,
    stack, cumulative, totals, last, base, electrons)`` with the block's
    :meth:`MonteCarloKernel._stack_rows` output, in which the root's row at
    plan index ``p`` is ``base + (p - start) * (events + 1)``.  ``held``
    keys the blocks whose potentials held at the point that planned them
    (they equal the exact ones there); the advance loop receives those as
    ``mirror`` — their configurations, ``(start, stop, base)`` rows, and
    the totals, cumulative rows and last-selectable indices of their
    stacks, concatenated — and ``potentials`` holds the same rows'
    potentials.  The plan is valid while the circuit's ``charge_version``
    equals ``charge_version``.
    """

    __slots__ = ("charge_version", "points", "voltages", "source", "indices",
                 "blocks", "held", "mirror", "potentials")

    def __init__(self, voltages: np.ndarray, charge_version: int,
                 events: int, islands: int) -> None:
        self.charge_version = charge_version
        self.source = voltages
        voltages = np.ascontiguousarray(voltages, dtype=float)
        # Each row as one bytes item, compared byte for byte as its
        # ``tobytes()`` key is: -0.0 and 0.0 stay distinct.
        keys = voltages.view(np.dtype(
            (np.void, voltages.itemsize * voltages.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        # Plan indices number the distinct rows by first appearance.
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        first = first[order]
        self.points: dict = dict(zip(keys[first].tolist(),
                                     range(first.size)))
        self.voltages = voltages[first]
        self.indices = rank[inverse.ravel()]
        self.blocks: dict = {}
        self.held: set = set()
        self.potentials = np.empty((0, islands))
        self.mirror = (np.empty((0, islands), dtype=np.int64),
                       np.empty((0, 3), dtype=np.int64), np.empty(0),
                       np.empty((0, events)), np.empty(0, dtype=np.int64))

    def covers(self, key, point: int) -> bool:
        """Whether the configuration ``key`` has rows planned at ``point``."""
        block = self.blocks.get(key)
        return block is not None and block[0] <= point < block[1]

    def forget(self, point: int) -> None:
        """Drop the blocks that end at or before ``point``."""
        for key in [key for key, block in self.blocks.items()
                    if block[1] <= point]:
            del self.blocks[key]
            self.held.discard(key)

    def plan_indices(self, voltages: np.ndarray) -> np.ndarray:
        """The plan index of every row of ``voltages`` (``-1``: unplanned)."""
        if voltages is self.source:
            return self.indices
        return np.array([self.points.get(vector.tobytes(), -1)
                         for vector in np.asarray(voltages, dtype=float)],
                        dtype=np.int64)

    def mirror_held(self) -> None:
        """Rebuild ``mirror`` and ``potentials`` from the held blocks."""
        offsets: dict = {}
        stacks = []
        spans = []
        configurations = []
        size = 0
        for key, block in self.blocks.items():
            if key not in self.held:
                continue
            start, stop, stack, cumulative, totals, last, base, electrons = \
                block
            offset = offsets.get(id(stack))
            if offset is None:
                offset = offsets[id(stack)] = size
                stacks.append((stack, cumulative, totals, last))
                size += len(totals)
            spans.append((start, stop, offset + base))
            configurations.append(electrons)
        if not stacks:
            self.potentials = self.potentials[:0]
            self.mirror = tuple(array[:0] for array in self.mirror)
            return
        stack, cumulative, totals, last = (np.concatenate(arrays)
                                           for arrays in zip(*stacks))
        self.potentials = stack
        self.mirror = (np.array(configurations, dtype=np.int64),
                       np.array(spans, dtype=np.int64), totals, cumulative,
                       np.ascontiguousarray(last, dtype=np.int64))


class MonteCarloKernel:
    """Rate evaluation and stochastic event selection for one circuit.

    Parameters
    ----------
    circuit:
        The circuit being simulated.
    temperature:
        Temperature in kelvin.
    rng:
        NumPy random generator (the simulator owns the seed policy).
    include_cotunneling:
        Whether second-order (co-tunnelling) channels are simulated.
    resync_interval:
        Number of incrementally-derived configurations between full
        island-potential re-solves (bounds floating-point drift).  ``1``
        re-solves for every new configuration.

    :meth:`run_phases` runs the advance loop that
    :func:`~repro.montecarlo.jit.resolve_advance` loads (``REPRO_JIT_BACKEND``
    picks it).  A configuration is the island electron numbers followed by
    one occupation column per charge trap; the events are the tunnel
    events, the co-tunnel channels, then each trap's capture and emission.
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 rng: np.random.Generator,
                 include_cotunneling: bool = False,
                 resync_interval: int = 1024) -> None:
        if temperature < 0.0:
            raise SimulationError("temperature must be non-negative")
        if resync_interval < 1:
            raise SimulationError("resync_interval must be at least 1")
        self.circuit = circuit
        self.temperature = float(temperature)
        self.rng = rng
        self.include_cotunneling = include_cotunneling
        self.resync_interval = int(resync_interval)
        self.model = EnergyModel(circuit)
        self.tunnel_candidates = [TunnelCandidate(event)
                                  for event in self.model.events()]
        self.cotunnel_candidates: List[CotunnelCandidate] = (
            enumerate_cotunnel_candidates(circuit, self.model)
            if include_cotunneling else []
        )
        self.traps = circuit.charge_traps()

        # ---------------------------------------------- precomputed tables
        self._table = self.model.table
        self._n_tunnel = self._table.size
        self._n_cot = len(self.cotunnel_candidates)
        self._cot_table = (CotunnelTable(self.model, self.cotunnel_candidates)
                           if self._n_cot else None)
        self._n_traps = len(self.traps)
        islands = self.model.island_count
        #: Width of a configuration row: islands, then trap occupations.
        self._width = islands + self._n_traps
        #: Event index of trap 0's capture (its emission is the next one).
        self.first_trap_event = self._n_tunnel + self._n_cot
        self._n_events = self.first_trap_event + 2 * self._n_traps
        #: ``_trap_rates[occupied, t]`` is trap ``t``'s (capture, emission)
        #: rate pair while empty (``0``) or occupied (``1``).
        self._trap_rates = np.zeros((2, self._n_traps, 2))
        self._trap_order = np.arange(self._n_traps)
        self._trap_islands = [self.model.island_index(trap.island)
                              for trap in self.traps]
        #: Candidate of every event (labels of event records).
        self.event_candidates = (
            list(self.tunnel_candidates) + list(self.cotunnel_candidates)
            + [TrapCandidate(trap, capture=flag) for trap in self.traps
               for flag in (True, False)])
        # Dense per-event matrices: row k of ``_delta_n_matrix`` is event
        # k's configuration change, of ``_delta_phi_matrix`` its potential
        # change (a trap flip's successor is solved exactly instead: zero
        # rows), of ``_transfer_matrix`` its per-junction electron-transfer
        # tally (the circuit's junction order, matching
        # EnsembleState.junction_names).
        self._delta_n_matrix = np.zeros((self._n_events, self._width),
                                        dtype=np.int64)
        self._delta_n_matrix[:self._n_tunnel, :islands] = self._table.delta_n
        self._delta_phi_matrix = np.zeros((self._n_events, islands))
        self._delta_phi_matrix[:self._n_tunnel] = self._table.delta_phi
        if self._n_cot:
            moves = slice(self._n_tunnel, self.first_trap_event)
            self._delta_n_matrix[moves, :islands] = self._cot_table.delta_n
            self._delta_phi_matrix[moves] = self._cot_table.delta_phi
        for position, trap in enumerate(self.traps):
            self._trap_rates[0, position, 0] = 1.0 / trap.capture_time
            self._trap_rates[1, position, 1] = 1.0 / trap.emission_time
            event = self.first_trap_event + 2 * position
            self._delta_n_matrix[event, islands + position] = 1
            self._delta_n_matrix[event + 1, islands + position] = -1
        self._event_delta_n = list(self._delta_n_matrix)
        self._event_delta_phi = list(self._delta_phi_matrix)
        self._junction_order = {junction.name: column for column, junction
                                in enumerate(circuit.junctions())}
        self._transfer_matrix = np.zeros(
            (self._n_events, len(self._junction_order)), dtype=float)
        for index, candidate in enumerate(self.event_candidates):
            for name, direction in candidate.charge_transfers():
                self._transfer_matrix[index, self._junction_order[name]] \
                    += direction
        #: ``k + 1`` per rate-table column (last positive-rate lookups).
        self._positions = np.arange(1, self._n_events + 1)

        # ----------------------------------------------- cache bookkeeping
        self._voltages: Optional[np.ndarray] = None
        self._bias_version = -1
        self._offsets: Optional[np.ndarray] = None
        self._offsets_version = -1
        self._entries_since_resync = 0
        self._plan: Optional[_SweepPlan] = None
        #: Memoised :class:`_RateEntry` per configuration (its bytes).
        self._rate_cache: dict = {}
        self._rate_cache_limit = 65536
        #: Memo entries the advance loop registered that ``_rate_cache``
        #: does not list (they count towards the memo cap).
        self._unlisted = 0
        # Bumped on every cache clear so cursors (which hold direct entry
        # references) can detect staleness in O(1).
        self._cache_epoch = 0
        # Block-drawn randoms (consumed left to right, refilled on demand).
        self._exp_buffer = np.empty(0)
        self._exp_position = 0
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0
        self._random_block = 4096
        #: Rows of the event log a hooked run's loop writes between drains.
        self._log_block = 4096
        self._log = self._no_log = np.empty((0, 3))

        # ---------------------------------------------------- advance loop
        self._jit_backend, self._jit_advance = resolve_advance()
        # The loop's arguments, kept across calls: an entry passes them as
        # they stand, and an array is re-bound only when another replaces it.
        self._ireg = np.zeros(IREG_SIZE, dtype=np.int64)
        self._freg = np.zeros(FREG_SIZE)
        self._arguments = LoopArguments()
        for index, array in ((ARG_TRANSFER_MATRIX, self._transfer_matrix),
                             (ARG_DELTA_N, self._delta_n_matrix),
                             (ARG_IREG, self._ireg), (ARG_FREG, self._freg),
                             (ARG_LOG, self._log)):
            self._arguments.set(index, array)
        self._phase_record: Optional[PhaseRecord] = None
        #: ``(voltages, starts)`` of the sweep a run is advancing, if any.
        self._sweep: Optional[tuple] = None
        #: The loop's sweep arguments when no sweep plan applies: no cold
        #: starts, no root scratch, no plan mirror.
        self._unplanned = _SweepPlan(np.empty((0, 0)), -1, self._n_events,
                                     islands)
        self._no_starts = np.empty((0, self._width), dtype=np.int64)
        self._roots = np.empty((0, self._width + 2), dtype=np.int64)

    @property
    def jit_backend(self) -> str:
        """Name of the backend :meth:`run_phases` runs on."""
        return self._jit_backend

    # ---------------------------------------------------------------- caches

    def _clear_rate_cache(self) -> None:
        """Drop all memoised rate entries and invalidate cursors."""
        self._rate_cache.clear()
        self._unlisted = 0
        self._cache_epoch += 1

    def _refresh_bias(self) -> None:
        version = self.circuit.bias_version
        if self._voltages is None or version != self._bias_version:
            self._voltages = self.model.system.cached_source_voltages()
            self._bias_version = version
            self._clear_rate_cache()

    def _refresh_offsets(self) -> None:
        version = self.circuit.charge_version
        if self._offsets is None or version != self._offsets_version:
            self._clear_rate_cache()
            self._offsets = np.array(self.model.system.cached_offset_charges())
            self._offsets_version = version

    def _configuration_offsets(self, configurations: np.ndarray) -> np.ndarray:
        """The offset charges of each configuration's trap state.

        The static offsets plus the coupling of every occupied trap, added
        in trap order; ``(..., islands)`` for a ``(..., width)`` stack.
        """
        islands = self.model.island_count
        offsets = np.array(np.broadcast_to(
            self._offsets, configurations.shape[:-1] + (islands,)))
        for position, trap in enumerate(self.traps):
            occupied = configurations[..., islands + position] == 1
            offsets[occupied, self._trap_islands[position]] += trap.coupling
        return offsets

    # ------------------------------------------------------------------ rates

    def _rates_from_phi(self, phi: np.ndarray, configurations: np.ndarray,
                        voltages: Optional[np.ndarray] = None) -> np.ndarray:
        """Rate table (tunnel | co-tunnel | trap flips) of configurations.

        ``phi`` is one potential vector or a ``(rows, islands)`` stack of
        them, ``configurations`` the matching configuration row(s) (only
        their trap columns are read); ``voltages`` is a ``(rows, sources)``
        stack of per-row source voltages, or ``None`` for the kernel's
        current ones.  Every rate is an element-wise function of its own
        row (the tunnel rates are evaluated over the flattened stack), so a
        row of a stacked evaluation equals the single-row evaluation bit
        for bit.
        """
        rows = phi.shape[:-1]
        columns = []
        if self._n_tunnel:
            delta_f = self._table.delta_f(
                phi, self._voltages if voltages is None else voltages)
            resistance = self._table.resistance if delta_f.ndim == 1 \
                else self._table.stacked_tiles(len(delta_f))[3]
            columns.append(orthodox_rate_vec(
                delta_f.reshape(-1), resistance,
                self.temperature).reshape(delta_f.shape))
        if self._n_cot:
            total, first, second = self._cot_table.channel_energies(delta_f)
            columns.append(cotunneling_rate_vec(
                total, first, second,
                self._cot_table.resistance_1, self._cot_table.resistance_2,
                self.temperature))
        if self._n_traps:
            occupied = configurations[..., self.model.island_count:]
            columns.append(self._trap_rates[occupied, self._trap_order]
                           .reshape(rows + (2 * self._n_traps,)))
        if len(columns) == 1:
            return columns[0]
        if not columns:
            return np.empty(rows + (0,))
        return np.concatenate(columns, axis=-1)

    def _selection_tables(self, rates: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cumulative rows, totals and last positive-rate indices of ``rates``.

        Selection clamps to the last positive-rate index so a threshold that
        rounds up to exactly the total can never pick a trailing forbidden
        (zero-rate) event.
        """
        width = rates.shape[-1]
        cumulative = rates.cumsum(axis=-1)
        if not width:
            return cumulative, np.zeros(rates.shape[:-1]), \
                np.full(rates.shape[:-1], -1, dtype=np.int64)
        positive = rates > 0.0
        if positive.all():
            last = np.full(rates.shape[:-1], width - 1)
        else:
            last = (positive * self._positions).max(axis=-1) - 1
        return cumulative, cumulative[..., -1], last

    # --------------------------------------------------------- memo entries

    def _store_entry(self, key, entry: "_RateEntry") -> None:
        if len(self._rate_cache) + self._unlisted >= self._rate_cache_limit:
            self._clear_rate_cache()
        self._rate_cache[key] = entry

    def _build_entry(self, key, electrons: np.ndarray,
                     phi: Optional[np.ndarray]) -> "_RateEntry":
        """Create (and memoise) the rate table of one configuration.

        ``phi = None`` forces an exact potential solve; otherwise the caller
        supplies incrementally derived potentials.
        """
        if phi is None:
            phi = self._exact_phi(electrons)
        cumulative, total, last = self._selection_tables(
            self._rates_from_phi(phi, electrons))
        entry = _RateEntry(electrons, phi, cumulative, float(total), int(last),
                           self._n_events)
        self._store_entry(key, entry)
        return entry

    def _potentials(self, electrons: np.ndarray,
                    voltages: np.ndarray) -> np.ndarray:
        """Island potentials ``C^-1 (q + B V)``: every exact solve's expression.

        ``electrons`` is a ``(..., width)`` stack of configurations and
        ``voltages`` a ``(..., sources)`` stack of source vectors that
        broadcasts against it; a trap circuit's offsets are each
        configuration's (:meth:`_configuration_offsets`).  Both products
        are stacked ``np.matmul`` calls over column vectors, so a
        configuration's potentials at one source vector are the same bits
        whether solved alone (:meth:`_exact_phi`) or in a plan block
        (:meth:`_plan_block`).
        """
        system = self.model.system
        offsets = self._offsets
        if self._n_traps:
            offsets = self._configuration_offsets(electrons)
            electrons = electrons[..., :self.model.island_count]
        charges = -np.asarray(electrons, dtype=float) * E_CHARGE + offsets
        bias = np.matmul(system.coupling, voltages[..., None])[..., 0]
        return np.matmul(system.inverse, (charges + bias)[..., None])[..., 0]

    def _exact_phi(self, electrons: np.ndarray) -> np.ndarray:
        """Exactly solved island potentials (restarts the resync count)."""
        self._entries_since_resync = 0
        return self._potentials(electrons, self._voltages)

    def _stack_rows(self, phi: np.ndarray, configurations: np.ndarray,
                    voltages: Optional[np.ndarray] = None) -> tuple:
        """Rate rows of root potentials and of their one-event successors.

        ``phi`` is a ``(roots, islands)`` stack of root potentials,
        ``configurations`` the roots' ``(roots, width)`` configurations and
        ``voltages`` the ``(roots, sources)`` source voltages each root is
        evaluated at (the kernel's current voltages when ``None``).  A
        root's event-``k`` successor gets ``phi + delta_phi[k]`` (one
        broadcast add, the expression :meth:`_descend` evaluates) and the
        root's trap state, and every row goes through one
        :meth:`_rates_from_phi` call (a trap flip's row is never adopted).
        Returns the potential stack, its cumulative rows, totals and
        last-selectable indices: root ``r`` is row ``r * (events + 1)``,
        its event-``k`` successor the ``k + 1``-th row after it.
        """
        roots, islands = phi.shape
        stride = self._n_events + 1
        stack = np.empty((roots, stride, islands))
        stack[:, 0] = phi
        np.add(phi[:, None], self._delta_phi_matrix, out=stack[:, 1:])
        stack = stack.reshape(roots * stride, islands)
        if voltages is not None:
            voltages = np.repeat(voltages, stride, axis=0)
        if self._n_traps:
            configurations = np.repeat(configurations, stride, axis=0)
        return (stack,) + self._selection_tables(
            self._rates_from_phi(stack, configurations, voltages))

    def _build_roots(self, configurations: np.ndarray) -> List["_RateEntry"]:
        """Memoised entries of root configurations, with speculated successors.

        Called with an empty memo (a fresh bias point).  Every root gets
        exactly solved potentials, as a lazy build would.  Its rate row and
        the speculated rows of its one-event successors come from the sweep
        plan (:meth:`_planned_rows`) when the plan's potentials equal the
        exact ones byte for byte; the other roots share one stacked
        evaluation at this point (:meth:`_stack_rows`).  The successor rows
        are kept on the root entry for :meth:`_descend` to adopt.
        """
        events = self._n_events
        electrons = np.asarray(configurations, dtype=np.int64)
        phi = self._exact_phi(electrons)
        rows = self._planned_rows(electrons, phi)
        missing = [root for root, found in enumerate(rows) if found is None]
        if missing:
            evaluated = self._stack_rows(
                *((phi, electrons) if len(missing) == len(rows)
                  else (phi[missing], electrons[missing])))
            for position, root in enumerate(missing):
                rows[root] = evaluated + (position * (events + 1),)
        entries = []
        for root, (_, cumulative, totals, last, row) in enumerate(rows):
            entry = _RateEntry(electrons[root], phi[root], cumulative[row],
                               float(totals[row]), int(last[row]), events)
            entry.speculation = (cumulative, totals, last, row + 1)
            self._store_entry(electrons[root].tobytes(), entry)
            entries.append(entry)
        return entries

    # ------------------------------------------------------------ sweep plan

    def plan_sweep(self, voltages: Optional[np.ndarray]) -> None:
        """Hold the source voltages of a sweep's points, or drop them.

        ``voltages`` is the ``(points, sources)`` stack of the source vectors
        the circuit will hold at the points of a sweep (columns in the order
        of ``model.system.source_names``); ``None`` drops it.  While it is
        held, a root configuration's rate rows are evaluated once per
        :data:`PLAN_BLOCK_POINTS` points (:meth:`_planned_rows`) instead of
        once per point, and a sweep run's loop roots a point from those
        rows itself where every root has a block.  A point finds its row by
        the bytes of its source vector; a point whose voltages are not in
        the stack is evaluated on its own.  The stack is dropped on an
        offset-charge change, and no plan is held for a circuit with charge
        traps (a flip's successor is solved exactly, never speculated).
        """
        self._plan = None
        if voltages is not None and self.model.island_count \
                and not self._n_traps:
            self._plan = _SweepPlan(voltages, self.circuit.charge_version,
                                    self._n_events, self.model.island_count)

    def _held_plan(self) -> Optional[_SweepPlan]:
        """The sweep plan, unless an offset-charge change dropped it."""
        plan = self._plan
        if plan is not None \
                and plan.charge_version != self.circuit.charge_version:
            plan = self._plan = None
        return plan

    def _planned_rows(self, electrons: np.ndarray,
                      phi: np.ndarray) -> List[Optional[tuple]]:
        """Each root's planned rate rows at this point, where they hold.

        Element ``r`` is ``(stack, cumulative, totals, last, row)`` — the
        :meth:`_stack_rows` output of a plan block and root ``r``'s row in
        it — or ``None`` when root ``r`` must be evaluated at the point:
        no plan holds this point, or the planned potentials differ from the
        exact ones ``phi[r]`` in any byte.  Roots without a block covering
        this point are planned first, all in one stacked evaluation over
        a block of :data:`PLAN_BLOCK_POINTS` points (:meth:`_plan_block`);
        a new block that holds here joins the plan's native mirror, from
        which the loop roots the later points the block covers.
        """
        plan = self._held_plan()
        point = None if plan is None \
            else plan.points.get(self._voltages.tobytes())
        if point is None:
            return [None] * len(electrons)
        keys = [row.tobytes() for row in electrons]
        unplanned = [root for root, key in enumerate(keys)
                     if not plan.covers(key, point)]
        if unplanned:
            self._plan_block(plan, point, electrons[unplanned],
                             [keys[root] for root in unplanned])
        stride = self._n_events + 1
        rows: List[Optional[tuple]] = []
        for root, key in enumerate(keys):
            start, _, stack, cumulative, totals, last, base, _ = \
                plan.blocks[key]
            row = base + (point - start) * stride
            if stack[row].tobytes() != phi[root].tobytes():
                rows.append(None)
                continue
            rows.append((stack, cumulative, totals, last, row))
            if start == point:
                plan.held.add(key)
        if unplanned:
            plan.mirror_held()
        return rows

    def _plan_block(self, plan: "_SweepPlan", point: int,
                    electrons: np.ndarray, keys: list) -> None:
        """Plan root configurations over the block of points from ``point``.

        The block is the next :data:`PLAN_BLOCK_POINTS` points of the sweep
        (fewer at its end).  The roots' potentials at every point of the
        block come from one :meth:`_potentials` call (the expression of
        every exact solve), and their rows and their successors' from one
        :meth:`_stack_rows` call.  Blocks that end at or before ``point``
        are dropped first.
        """
        plan.forget(point)
        stop = min(point + PLAN_BLOCK_POINTS, len(plan.voltages))
        phi = self._potentials(electrons[:, None, :],
                               plan.voltages[point:stop])
        rows = self._stack_rows(
            phi.reshape(-1, phi.shape[-1]), electrons,
            np.tile(plan.voltages[point:stop], (len(electrons), 1)))
        span = (stop - point) * (self._n_events + 1)
        for index, key in enumerate(keys):
            plan.blocks[key] = (point, stop) + rows + (index * span,
                                                       electrons[index])
            plan.held.discard(key)

    def _descend(self, parent: "_RateEntry", index: int) -> "_RateEntry":
        """Entry of the configuration reached from ``parent`` via event ``index``.

        This is where the incremental electrostatics happens: the successor's
        island potentials are the parent's plus the event's precomputed
        ``delta_phi`` (a column combination of ``C^-1``), skipping the full
        ``C^-1 (q + B V)`` solve.  Every ``resync_interval`` discoveries the
        potentials are re-solved exactly to stop rounding drift, and a trap
        flip's successor is always solved exactly, under the offset charges
        of its own trap state.  A successor of a stacked root adopts its
        speculated rate row: the stack holds the root's potentials plus the
        same ``delta_phi`` row, so the potentials derived here are the
        speculated ones, bit for bit.
        """
        electrons = parent.electrons + self._event_delta_n[index]
        key = electrons.tobytes()
        existing = self._rate_cache.get(key)
        if existing is not None:
            return existing
        if index >= self.first_trap_event \
                or self._entries_since_resync >= self.resync_interval:
            return self._build_entry(key, electrons, None)
        phi = parent.phi + self._event_delta_phi[index]
        self._entries_since_resync += 1
        speculation = parent.speculation
        if speculation is None:
            return self._build_entry(key, electrons, phi)
        cumulative, totals, last, first = speculation
        row = first + index
        entry = _RateEntry(electrons, phi, cumulative[row],
                           float(totals[row]), int(last[row]),
                           self._n_events)
        self._store_entry(key, entry)
        return entry

    # --------------------------------------------------------------- cursors

    def _ensure_cursor(self, ensemble: EnsembleState) -> _EnsembleCursor:
        """Resolve (or revalidate) the slot/entry mapping of an ensemble.

        Replicas are grouped by configuration first, so each distinct
        configuration is keyed into the memo exactly once no matter how many
        replicas currently occupy it.  After a bias change the distinct
        configurations come from the stale cursor's slots (the common case:
        nobody edited ``ensemble.electrons``, :meth:`_distinct`), the stale
        cursor is re-keyed in place so its mirror arrays are reused, and
        the now empty memo gets every root from :meth:`_build_roots`
        (planned rows, or one stacked build at the point).
        """
        electrons = np.ascontiguousarray(ensemble.electrons, dtype=np.int64)
        ensemble.electrons = electrons
        cursor = ensemble.cursor
        stale = isinstance(cursor, _EnsembleCursor)
        if stale and electrons.tobytes() == cursor.seen:
            if cursor.epoch == self._cache_epoch:
                return cursor
            unique, inverse = self._distinct(cursor)
        else:
            unique, inverse = np.unique(electrons, axis=0,
                                        return_inverse=True)
            inverse = np.asarray(inverse, dtype=np.int64).reshape(-1)
        if not stale:
            cursor = _EnsembleCursor(self._n_events, self._width)
            ensemble.cursor = cursor
        cursor.reset(self._cache_epoch, self._root_entries(unique), inverse)
        cursor.seen = electrons.tobytes()
        return cursor

    @staticmethod
    def _distinct(cursor: _EnsembleCursor) -> Tuple[np.ndarray, np.ndarray]:
        """The replicas' distinct configurations and each replica's index.

        The occupied slots in configuration order (ties by slot), as
        ``np.unique`` would sort the rows; a few Python operations are far
        cheaper than it at sweep-point replica counts.
        """
        configurations = cursor.configurations
        if cursor.slots.size == 1:
            return configurations[cursor.slots], np.zeros(1, dtype=np.int64)
        occupied = cursor.slots.tolist()
        distinct = sorted(set(occupied), key=lambda slot: (
            configurations[slot].tolist(), slot))
        rank = {slot: position for position, slot in enumerate(distinct)}
        return configurations[distinct], np.array(
            [rank[slot] for slot in occupied], dtype=np.int64)

    def _root_entries(self, unique: np.ndarray) -> List["_RateEntry"]:
        """Memo entries of the distinct configurations ``unique``.

        An empty memo (a fresh bias point) gets them all from
        :meth:`_build_roots`; otherwise each is looked up, or built on its
        own.
        """
        if not self._rate_cache and not self._unlisted \
                and len(unique) < self._rate_cache_limit:
            return self._build_roots(unique)
        entries = []
        for row in unique:
            row = np.ascontiguousarray(row)
            key = row.tobytes()
            entry = self._rate_cache.get(key)
            if entry is None:
                entry = self._build_entry(key, row.copy(), None)
            entries.append(entry)
        return entries

    # ---------------------------------------------------------- phased runs

    def _link_compiled(self, cursor: _EnsembleCursor, slot: int,
                       event: int) -> None:
        """Resolve one unlinked (configuration, event) transition in place."""
        parent = cursor.entries[slot]
        if parent is None:
            parent = self._loop_entry(cursor, slot)
        child = parent.successors[event]
        if child is None:
            child = self._descend(parent, event)
            parent.successors[event] = child
        cursor.successor_slots[slot, event] = cursor.register(child)

    def _loop_entry(self, cursor: _EnsembleCursor,
                    slot: int) -> "_RateEntry":
        """The entry of a slot the loop registered from the plan mirror.

        Built when Python first needs it (as the parent of a discovery):
        its potentials and rate row are the mirror row
        ``cursor.slot_rows[slot]``, and a root row (a multiple of
        ``events + 1``) carries the block's rows as its speculation.
        """
        row = int(cursor.slot_rows[slot])
        _, _, totals, cumulative, last = self._plan.mirror
        entry = _RateEntry(cursor.configurations[slot].copy(),
                           self._plan.potentials[row], cumulative[row],
                           float(totals[row]), int(last[row]), self._n_events)
        if row % (self._n_events + 1) == 0:
            entry.speculation = (cumulative, totals, last, row + 1)
        cursor.entries[slot] = entry
        cursor.slot_of[id(entry)] = slot
        return entry

    def _next_point(self, cursor: _EnsembleCursor, point: int) -> None:
        """Answer a root request: point ``point``'s rate tables, in place.

        The loop asks only when it cannot root the point from the plan
        mirror itself (a root without a held block, a fault injector
        active, or another case :func:`~repro.montecarlo.jit._root_from_plan`
        lists).  The point's source voltages replace the last
        point's and the memo starts afresh, as a bias change does.  The
        replicas' configurations (or the sweep's cold start at this point)
        are the roots: each is solved exactly and adopts its planned rows
        where they hold (:meth:`_build_roots`), and the cursor is re-keyed
        to them.  The ``jit.run_compiled`` fault site fires here on a
        native backend.
        """
        if self._jit_backend != BACKEND_PYTHON:
            inject("jit.run_compiled")
        voltages, starts = self._sweep
        self._voltages = voltages[point]
        self._clear_rate_cache()
        if starts is None:
            unique, inverse = self._distinct(cursor)
        else:
            unique = starts[point:point + 1]
            inverse = np.zeros(cursor.slots.size, dtype=np.int64)
        cursor.reset(self._cache_epoch, self._root_entries(unique), inverse)

    def _take_over(self, cursor: _EnsembleCursor) -> None:
        """Bring the memo and the cursor's entries up to what the loop did.

        If the loop rooted the current point from the plan
        (``REG_LOOP_ROOTED``), the point's voltages replace the last
        point's and the memo and the cursor's entries start afresh, as
        :meth:`_next_point` leaves them.  Slots the loop registered since
        get ``None`` entries (built on demand by :meth:`_loop_entry`) and
        count towards the memo cap.  The resync count is the loop's.
        """
        ireg = self._ireg
        self._entries_since_resync = int(ireg[REG_RESYNC])
        if ireg[REG_LOOP_ROOTED]:
            ireg[REG_LOOP_ROOTED] = 0
            self._voltages = self._sweep[0][int(ireg[REG_POINT])]
            self._clear_rate_cache()
            cursor.epoch = self._cache_epoch
            cursor.entries = []
            cursor.slot_of = {}
        entries = cursor.entries
        registered = int(ireg[REG_REGISTERED])
        if registered > len(entries):
            entries.extend([None] * (registered - len(entries)))
            self._unlisted = registered - len(self._rate_cache)

    def _hand_back(self, cursor: _EnsembleCursor) -> None:
        """Write the registers that tell the loop what Python changed.

        The registered slot count and the resync count go back to the
        loop.  After a memo-cap clear mid-run the registered slots no
        longer are the memo: the count reads 0, so every link goes through
        Python.
        """
        ireg = self._ireg
        ireg[REG_REGISTERED] = len(cursor.entries) \
            if cursor.epoch == self._cache_epoch else 0
        ireg[REG_RESYNC] = self._entries_since_resync

    def phase_record(self, schedule: Sequence[int], replicas: int = 1,
                     points: int = 1) -> PhaseRecord:
        """A :class:`PhaseRecord` for ``schedule`` over ``replicas`` replicas.

        The record of the previous request is handed out again when the
        schedule, replica count and point count repeat (one run or sweep
        after another), so the loop keeps receiving the same output arrays;
        it is therefore only valid until the next request.
        """
        record = self._phase_record
        if record is None or record.key != (tuple(schedule), replicas,
                                            points):
            record = self._phase_record = PhaseRecord(
                schedule, replicas, len(self._junction_order), points)
        record.point = record.phase = record.replica = 0
        record.rooted = 1
        return record

    def run_phases(self, ensemble: EnsembleState, record: PhaseRecord,
                   duration: Optional[float] = None,
                   voltages: Optional[np.ndarray] = None,
                   starts: Optional[np.ndarray] = None,
                   log: Optional[list] = None) -> None:
        """Advance every replica through a phased run of the advance loop.

        Replicas run through ``record.schedule`` phase-major (every replica
        finishes phase ``p`` before any starts ``p + 1``), each to its own
        per-phase event budget or ``duration``, sharing the memoised rate
        tables and the block random buffers.  One backend call advances the
        whole schedule, updating the cursor slots, ``ensemble.times``,
        ``event_counts`` and ``electron_transfers`` in place and
        snapshotting them into ``record`` at every phase boundary; ``record``
        row 0 must hold them at the start.

        ``voltages`` runs the schedule at every point of ``record``: the
        ``(points, sources)`` source vector of each point.  ``starts`` is
        then ``None`` to carry the replicas from point to point, or, for a
        cold-started sweep, the ``(points, width)`` configuration every
        replica starts each point from.  The circuit is not written to.
        Between points the loop zeroes every replica's clock, count and
        transfer row and roots the next point from the sweep plan's native
        mirror, or asks Python for its rate tables (:meth:`_next_point`)
        where it cannot; without ``voltages`` the run is one point at the
        circuit's bias.

        The loop returns early only when it needs Python — a random block
        refill, a configuration not met before at this point that it
        cannot register from the plan, or a point it cannot root — and is
        re-entered with the updated buffers and cursor arrays (re-bound
        when they grew); the registers resume the interrupted replica
        mid-event.  Refills replicate the step loop's accessors exactly
        (one ``_random_block`` draw at the consumption point), so a
        single-replica ensemble replays the step loop's trajectory event
        for event.

        ``log`` (a list, for a one-phase run) asks for the event log of
        :mod:`~repro.montecarlo.jit`: Python drains its rows into ``log``
        as ``(times, events, configurations)`` chunks whenever its
        ``_log_block`` rows are full, before the cursor is re-keyed and at
        the end.

        The run starts from the boundary ``record.point``/``record.phase``/
        ``record.replica`` (zero for a fresh :meth:`phase_record`).  If a
        native backend raises, every replica is left at the boundary those
        then record (the interrupted replica's transfer row restored from
        its phase-start snapshot); the kernel swaps in the interpreted loop
        for good, emits a ``jit.run_compiled`` / ``fallback:python``
        degradation and resumes from that boundary on the same random
        stream (a restarted one-phase run starts its ``log`` afresh).  The
        ``jit.run_compiled`` fault site fires at the start of a native run
        and at each point Python roots; while a fault injector is active
        Python roots every point.
        """
        self._sweep = None if voltages is None else (voltages, starts)
        try:
            if voltages is None:
                self._refresh_bias()
            else:
                self._voltages = voltages[record.point]
                self._clear_rate_cache()
            self._refresh_offsets()
            cursor = self._ensure_cursor(ensemble)
            # The native loop writes through raw addresses: hand it
            # contiguous arrays of the exact dtypes (a no-op for
            # kernel-built ensembles).
            ensemble.times = np.ascontiguousarray(ensemble.times, dtype=float)
            ensemble.event_counts = np.ascontiguousarray(
                ensemble.event_counts, dtype=np.int64)
            ensemble.electron_transfers = np.ascontiguousarray(
                ensemble.electron_transfers, dtype=float)
            replicas, junctions = ensemble.electron_transfers.shape
            if record.transfers.shape[1:] != (replicas, junctions):
                raise SimulationError(
                    f"phase record for {record.times.shape[1]} replica(s) "
                    f"and {record.transfers.shape[2]} junction(s) cannot "
                    f"snapshot {replicas} replica(s) and {junctions}")
            try:
                if self._jit_backend != BACKEND_PYTHON:
                    inject("jit.run_compiled")
                self._advance(cursor, ensemble, record, duration, log)
            except Exception as error:
                if self._jit_backend == BACKEND_PYTHON:
                    raise
                from ..resilience.events import emit_degradation

                self._jit_backend, self._jit_advance = \
                    resolve_advance(BACKEND_PYTHON)
                emit_degradation("jit.run_compiled", "fallback:python",
                                 repr(error))
                if log is not None:
                    log.clear()
                self._advance(cursor, ensemble, record, duration, log)
        finally:
            if voltages is not None:
                # The circuit still holds its own bias: the next run
                # re-reads it (and starts a fresh memo).
                self._sweep = None
                self._voltages = None

    def _advance(self, cursor: _EnsembleCursor, ensemble: EnsembleState,
                 record: PhaseRecord, duration: Optional[float],
                 log: Optional[list]) -> None:
        """The backend calls of :meth:`run_phases`, from ``record``'s boundary.

        In a sweep the loop roots a point from the plan mirror itself
        unless a fault injector is active: the Python root request is then
        made at every point, so the ``jit.run_compiled`` site fires once
        per point.
        """
        arguments = self._arguments
        arrays = arguments.arrays
        transfers = ensemble.electron_transfers
        plan = None if self._sweep is None else self._held_plan()
        planned = plan is not None and active_injector() is None
        if planned:
            plan_points = plan.plan_indices(self._sweep[0])
        else:
            plan = self._unplanned
            plan_points = plan.indices
        starts = self._no_starts if self._sweep is None \
            or self._sweep[1] is None \
            else np.ascontiguousarray(self._sweep[1], dtype=np.int64)
        if len(self._roots) != len(cursor.slots):
            self._roots = np.empty((len(cursor.slots), self._roots.shape[1]),
                                   dtype=np.int64)
        rows = self._no_log
        if log is not None:
            if len(self._log) != self._log_block:
                self._log = np.empty((self._log_block, 3))
            rows = self._log
        for index, array in ((ARG_TIMES, ensemble.times),
                             (ARG_COUNTS, ensemble.event_counts),
                             (ARG_TRANSFERS, transfers),
                             (ARG_SCHEDULE, record.schedule),
                             (ARG_PHASE_TIMES, record.stacks[0]),
                             (ARG_PHASE_COUNTS, record.stacks[1]),
                             (ARG_PHASE_TRANSFERS, record.stacks[2]),
                             (ARG_EXP, self._exp_buffer),
                             (ARG_UNIFORM, self._uniform_buffer),
                             (ARG_STARTS, starts), (ARG_ROOTS, self._roots),
                             (ARG_PLAN_POINTS, plan_points), (ARG_LOG, rows)):
            if arrays[index] is not array:
                arguments.set(index, array)
        self._bind_plan(plan)
        ireg = self._ireg
        freg = self._freg
        ireg.fill(0)
        freg.fill(0.0)
        ireg[REG_POINT] = record.point
        ireg[REG_PHASE] = record.phase
        ireg[REG_REPLICA] = record.replica
        ireg[REG_ROOTED] = record.rooted
        ireg[REG_EXP_POS] = self._exp_position
        ireg[REG_UNI_POS] = self._uniform_position
        ireg[REG_RESYNC_INTERVAL] = self.resync_interval
        ireg[REG_MEMO_LIMIT] = self._rate_cache_limit
        ireg[REG_PLANNED] = planned
        self._hand_back(cursor)
        freg[FREG_DURATION] = np.inf if duration is None else float(duration)
        try:
            while True:
                if cursor.totals is not arrays[ARG_TOTALS] \
                        or cursor.slots is not arrays[ARG_SLOTS]:
                    for index, array in (
                            (ARG_TOTALS, cursor.totals),
                            (ARG_CUMULATIVE, cursor.cumulative),
                            (ARG_LAST, cursor.last_selectable),
                            (ARG_SUCCESSORS, cursor.successor_slots),
                            (ARG_CONFIGURATIONS, cursor.configurations),
                            (ARG_SLOT_ROWS, cursor.slot_rows),
                            (ARG_SLOTS, cursor.slots)):
                        arguments.set(index, array)
                status = self._jit_advance(arguments)
                if status == STATUS_NEED_EXP:
                    self._exp_buffer = self._refill(
                        self.rng.standard_exponential, self._exp_buffer,
                        ARG_EXP)
                    ireg[REG_EXP_POS] = 0
                elif status == STATUS_NEED_UNIFORM:
                    self._uniform_buffer = self._refill(
                        self.rng.random, self._uniform_buffer, ARG_UNIFORM)
                    ireg[REG_UNI_POS] = 0
                elif status == STATUS_NEED_LINK:
                    self._take_over(cursor)
                    self._link_compiled(cursor, int(ireg[REG_SLOT]),
                                        int(ireg[REG_PENDING_EVENT]))
                    self._hand_back(cursor)
                elif status == STATUS_LOG_FULL:
                    self._drain(cursor, log)
                elif status == STATUS_NEED_ROOTS:
                    if log is not None:
                        self._drain(cursor, log)
                    self._take_over(cursor)
                    self._next_point(cursor, int(ireg[REG_POINT]))
                    self._hand_back(cursor)
                    self._bind_plan(plan)
                    ireg[REG_ROOTED] = 1
                else:
                    break
            if log is not None:
                self._drain(cursor, log)
        finally:
            self._take_over(cursor)
            self._exp_position = int(ireg[REG_EXP_POS])
            self._uniform_position = int(ireg[REG_UNI_POS])
            record.point = int(ireg[REG_POINT])
            record.phase = int(ireg[REG_PHASE])
            record.replica = int(ireg[REG_REPLICA])
            record.rooted = int(ireg[REG_ROOTED])
            if ireg[REG_LOADED]:
                transfers[record.replica] = record.stacks[2][
                    record.point, record.phase, record.replica]
            # Finished phases keep their progress even if a re-entry
            # raised, so a resumed run continues from them.
            ensemble.electrons[:] = cursor.configurations[cursor.slots]
            cursor.seen = ensemble.electrons.tobytes()

    def _drain(self, cursor: _EnsembleCursor, log: list) -> None:
        """Move the loop's logged rows into ``log`` and empty the log.

        A chunk is the rows' times, events (``-1``: none applied) and the
        configurations of their slots, so it outlives a re-keyed cursor.
        """
        count = int(self._ireg[REG_LOG])
        if count:
            rows = self._log[:count]
            log.append((rows[:, 0].copy(), rows[:, 1].astype(np.int64),
                        cursor.configurations[rows[:, 2].astype(np.int64)]))
            self._ireg[REG_LOG] = 0

    def _bind_plan(self, plan: _SweepPlan) -> None:
        """Pass ``plan``'s native mirror to the loop (re-bound when rebuilt)."""
        arguments = self._arguments
        for index, array in zip((ARG_PLAN_CONFIGURATIONS, ARG_PLAN_BLOCKS,
                                 ARG_PLAN_TOTALS, ARG_PLAN_CUMULATIVE,
                                 ARG_PLAN_LAST), plan.mirror):
            if arguments.arrays[index] is not array:
                arguments.set(index, array)

    def _refill(self, sampler, buffer: np.ndarray, index: int) -> np.ndarray:
        """One ``_random_block`` draw, into ``buffer`` when it is block-sized.

        Filling in place draws the same stream as a fresh block and keeps
        the array the loop already holds the address of; a fresh block is
        passed as loop argument ``index``.
        """
        if buffer.size == self._random_block:
            return sampler(out=buffer)
        buffer = sampler(self._random_block)
        self._arguments.set(index, buffer)
        return buffer


__all__ = ["MonteCarloKernel"]
