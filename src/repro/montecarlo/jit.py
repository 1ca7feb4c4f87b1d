"""Compiled hot loop for the kinetic Monte-Carlo kernel.

This module holds the *entire* inner loop of the kinetic Monte-Carlo
kernel — rate-table lookup, cumulative-row event selection, configuration
update, transfer accounting and time accumulation — as one function that
runs thousands of events per call over the flat arrays exported by the
kernel's ``_EnsembleCursor`` mirrors, compiled to native code where a
compiler is available.  Every Monte-Carlo run goes through it, a whole
sweep, a charge-trap run and a run with per-event hooks included: a trap
flip is one more event of the configuration, and a hooked run has the loop
write an event log.

Backend ladder
--------------
Three interchangeable implementations of the same loop exist, picked at
first use (override with ``REPRO_JIT_BACKEND``).  Each is one callable
taking the kernel's :class:`LoopArguments`: the point loop
:func:`_advance_points_py` around the event loop :func:`_advance_py`, so a
scalar run (one replica), an ``R``-replica ensemble run and a sweep of
either enter the backend through the same function.

``numba``
    :func:`numba.njit` with ``cache=True`` applied to the *same* Python
    source as the interpreted fallback (the event loop and its helpers
    registered as jitable first, then the point loop that calls them), so
    the compiled artefact shares the tested control flow line for line.
    Optional — the import is gated, not ``try/except``-ed at call sites.
``cc``
    A line-for-line C translation compiled on demand with the system C
    compiler (``cc``/``gcc``) into a per-source-hash shared library loaded
    through :mod:`ctypes`.  No third-party dependency; IEEE semantics are
    preserved (no ``-ffast-math``), which is what makes the seeded replay
    tests bit-exact.  The entry takes one pointer: the int64 block of
    array addresses and sizes that :class:`LoopArguments` keeps, rewritten
    only when the kernel swaps an array, so an entry costs one bare
    foreign call.
``python``
    The interpreted loop itself.  Always available; slow, but the
    correctness reference for the re-entry protocol.

:func:`jit_compiled` reports whether a *native* backend (numba or cc) is
active.  The Monte-Carlo engines run this loop on every backend; the
interpreted one gives the same events at Python speed.

Phase schedule and point axis
-----------------------------
One call runs a whole *schedule*: an int64 array of per-replica event
budgets, one per phase (the scalar estimator's warm-up and its ten blocks;
the ensemble estimator's warm-up and its estimate window; a plain run is a
one-phase schedule), at every point of a sweep.  Phases run phase-major —
every replica finishes phase ``p`` before any starts ``p + 1`` — so the
random stream is consumed exactly as by one kernel call per phase.  When
replica ``r`` finishes phase ``p`` of point ``q`` its clock, cumulative
event count and transfer row are snapshotted into row ``p + 1`` of point
``q`` of the ``phase_times`` / ``phase_counts`` / ``phase_transfers``
outputs (row ``0`` of the first point holds the start state and is the
caller's), so per-phase charges and durations are row differences.  The
replicas carry from one point to the next with their clocks, counts and
transfer rows zeroed (row ``0`` of every later point is written by the
loop).  An optional time budget (``FREG_DURATION``) applies to every
phase.  A plain run, ``stationary_current`` and every serial sweep are one
call each: a run is a one-point sweep.

Arguments
---------
The point loop takes its arrays in :class:`LoopArguments` order
(``ARG_*``): the cursor mirrors (``totals``, ``cumulative``,
``last_selectable``, ``successor_slots``, ``configurations``), the
per-event ``transfer_matrix`` and ``delta_n``, the replicas (``slots``,
``times``, ``counts``, ``transfers``), the ``schedule`` and the three
phase-row outputs, the two random block buffers, the ``ireg``/``freg``
registers, and for rooting points from the sweep plan: ``slot_rows`` (the
plan-mirror row of each slot the loop registered, ``-1`` for the
kernel's), ``starts`` (a cold sweep's start configuration per point, no
rows when warm), ``roots`` (scratch, one row per replica),
``plan_points`` (each sweep point's plan index) and the plan mirror itself
— ``plan_configurations`` and ``plan_blocks`` (``start, stop, base`` per
block) of the held plan blocks, and the ``plan_totals``,
``plan_cumulative`` and ``plan_last`` rows of their roots and speculated
successors — and the event ``log`` (no rows for a run without hooks): one
``(time, event, slot)`` row per event-loop iteration, the clock and slot
after it and the event applied, or ``-1`` for a censored wait, a blockade
or a zero-time stall (each a ``step`` call of the loop this one replaced).

Re-entry protocol
-----------------
The native loop cannot call back into Python (for RNG block refills, a
discovery it cannot make from the plan, or a point it cannot root), so it
runs until it either finishes or needs the kernel, returning a status
code:

========================  ====================================================
``STATUS_DONE``           every phase of every replica ran at every point
``STATUS_BLOCKED``        no event has a positive rate and no time budget
``STATUS_NEED_EXP``       the exponential block buffer is exhausted
``STATUS_NEED_UNIFORM``   the uniform block buffer is exhausted
``STATUS_NEED_LINK``      a transition reaches a configuration not yet met
``STATUS_NEED_ROOTS``     a new point needs rate tables the loop cannot take
``STATUS_LOG_FULL``       the event log has no row left for an iteration
========================  ====================================================

``STATUS_DONE`` and ``STATUS_BLOCKED`` end one replica's phase inside the
event loop; the point loop commits and snapshots it and moves on,
returning ``STATUS_DONE`` after the last phase of the last replica at the
last point.  The other codes return to the kernel at once.  An unlinked
transition whose target configuration is already registered at this point
is linked inside the loop (a memo hit has no side effect), and one to the
speculated successor of a root the loop took from the plan is registered
inside the loop (:func:`_adopt_speculated`); only another discovery
returns ``STATUS_NEED_LINK``.  At a new point the loop roots the replicas
from the plan mirror itself (:func:`_root_from_plan`) and returns
``STATUS_NEED_ROOTS`` only when ``REG_PLANNED`` is off (no sweep plan, or
a fault injector active), a root has no covering plan block, two slots
hold one configuration, the roots would reach the memo cap, or a memo-cap
clear at the last point separated the registered slots from the memo.
Either way the discovery order, the resync count and the memo cap are the
kernel's: the loop counts them in registers exactly as the kernel does.

All resumable state lives in two small register arrays (``ireg``/``freg``)
so the kernel can refill a buffer, link a successor or re-key a point and
re-enter mid-event:

===========================  =================================================
``REG_SLOT``                 cursor slot of the advancing replica
``REG_EVENTS``               events that replica executed in this phase
``REG_EXP_POS``              read position in the exponential block buffer
``REG_UNI_POS``              read position in the uniform block buffer
``REG_PENDING_EVENT``        selected-but-unapplied event (-1: none)
``REG_STALLS``               consecutive zero-progress iterations
``REG_REPLICA``              replica currently advancing
``REG_LOADED``               whether that replica's state is in the registers
``REG_PHASE``                schedule phase currently running
``REG_REGISTERED``           registered slots the loop may link to (0 after a
                             memo-cap clear mid-point)
``REG_POINT``                sweep point currently running
``REG_ROOTED``               whether that point's rate tables are in place
``REG_RESYNC``               configurations registered since an exact solve
``REG_RESYNC_INTERVAL``      the kernel's ``resync_interval``
``REG_MEMO_LIMIT``           the kernel's memo cap
``REG_PLANNED``              whether the loop may root points from the plan
``REG_LOOP_ROOTED``          the loop rooted ``REG_POINT`` and the kernel has
                             not yet taken that over
``REG_LOG``                  next row of the event log (the kernel drains the
                             log and zeroes it)
``FREG_TIME``                the replica's clock
``FREG_PENDING_WAIT``        drawn-but-unapplied waiting time (-1.0: none)
``FREG_START``               the replica's clock at the start of this phase
``FREG_DURATION``            per-replica, per-phase time budget (+inf: none)
===========================  =================================================

A schedule therefore costs one native entry, plus one per refill, per
discovery the plan does not cover, per point the plan does not root and
per full event log, however many replicas, phases and points it
advances.  ``REG_POINT``,
``REG_PHASE`` and ``REG_REPLICA`` also tell a kernel whose re-entry raised
how far the schedule got: replicas below ``REG_REPLICA`` have finished
phase ``REG_PHASE`` of point ``REG_POINT``, the others only the phases
before it.  Buffer refills happen exactly at the consumption points,
preserving the interleaved draw order of the per-event step loop the
advance loop replaced — the property that makes its event-for-event
replay possible (the test-suite keeps that loop as the oracle).

numba is an optional dependency the test suite does not install, so no
test compiles the loop with it; the loop keeps to numba's nopython subset
(arrays, integers, floats and plain loops).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Status codes returned by every backend's advance loop.
STATUS_DONE = 0
STATUS_BLOCKED = 1
STATUS_NEED_EXP = 2
STATUS_NEED_UNIFORM = 3
STATUS_NEED_LINK = 4
STATUS_NEED_ROOTS = 5
STATUS_LOG_FULL = 6

#: ``ireg`` (int64) register layout shared by all backends.
REG_SLOT = 0            #: current cursor slot
REG_EVENTS = 1          #: events executed this run
REG_EXP_POS = 2         #: read position in the exponential block buffer
REG_UNI_POS = 3         #: read position in the uniform block buffer
REG_PENDING_EVENT = 4   #: selected-but-unapplied event index (-1: none)
REG_STALLS = 5          #: consecutive zero-progress iterations
REG_REPLICA = 6         #: replica currently advancing
REG_LOADED = 7          #: whether that replica's state is in the registers
REG_PHASE = 8           #: schedule phase currently running
REG_REGISTERED = 9      #: registered slots the loop may link to
REG_POINT = 10          #: sweep point currently running
REG_ROOTED = 11         #: whether that point's rate tables are in place
REG_RESYNC = 12         #: configurations registered since an exact solve
REG_RESYNC_INTERVAL = 13  #: the kernel's ``resync_interval``
REG_MEMO_LIMIT = 14     #: the kernel's memo cap
REG_PLANNED = 15        #: whether the loop may root points from the plan
REG_LOOP_ROOTED = 16    #: the loop rooted REG_POINT; the kernel has not seen it
REG_LOG = 17            #: next row of the event log
IREG_SIZE = 18

#: ``freg`` (float64) register layout shared by all backends.
FREG_TIME = 0           #: simulated clock
FREG_PENDING_WAIT = 1   #: drawn-but-unapplied waiting time (-1.0: none)
FREG_START = 2          #: clock value at phase start
FREG_DURATION = 3       #: per-phase time budget (+inf: unbounded)
FREG_SIZE = 4

#: Recognised ``REPRO_JIT_BACKEND`` values.
BACKEND_NUMBA = "numba"
BACKEND_CC = "cc"
BACKEND_PYTHON = "python"
_BACKENDS = (BACKEND_NUMBA, BACKEND_CC, BACKEND_PYTHON)

_ENV_BACKEND = "REPRO_JIT_BACKEND"
_ENV_CACHE_DIR = "REPRO_JIT_CACHE_DIR"

_INF = float("inf")


#: Argument indices of the point loop (:func:`_advance_points_py` order).
(ARG_TOTALS, ARG_CUMULATIVE, ARG_LAST, ARG_SUCCESSORS, ARG_CONFIGURATIONS,
 ARG_TRANSFER_MATRIX, ARG_DELTA_N, ARG_SLOTS, ARG_TIMES, ARG_COUNTS,
 ARG_TRANSFERS, ARG_SCHEDULE, ARG_PHASE_TIMES, ARG_PHASE_COUNTS,
 ARG_PHASE_TRANSFERS, ARG_EXP, ARG_UNIFORM, ARG_IREG, ARG_FREG,
 ARG_SLOT_ROWS, ARG_STARTS, ARG_ROOTS, ARG_PLAN_POINTS,
 ARG_PLAN_CONFIGURATIONS, ARG_PLAN_BLOCKS, ARG_PLAN_TOTALS,
 ARG_PLAN_CUMULATIVE, ARG_PLAN_LAST, ARG_LOG) = range(29)
ARG_COUNT = 29
#: Size slots of the address block, after the addresses.
(SIZE_EXP, SIZE_UNIFORM, SIZE_PHASES, SIZE_REPLICAS, SIZE_EVENTS,
 SIZE_JUNCTIONS, SIZE_ISLANDS, SIZE_POINTS, SIZE_CAPACITY, SIZE_STARTS,
 SIZE_BLOCKS, SIZE_LOG) = range(ARG_COUNT, ARG_COUNT + 12)
SIZE_COUNT = 12
#: Which size each argument carries: ``index -> (size slot, axis)``.
_SIZES = {ARG_EXP: (SIZE_EXP, 0), ARG_UNIFORM: (SIZE_UNIFORM, 0),
          ARG_SCHEDULE: (SIZE_PHASES, 0), ARG_SLOTS: (SIZE_REPLICAS, 0),
          ARG_CUMULATIVE: (SIZE_EVENTS, 1),
          ARG_TRANSFER_MATRIX: (SIZE_JUNCTIONS, 1),
          ARG_DELTA_N: (SIZE_ISLANDS, 1),
          ARG_PHASE_TIMES: (SIZE_POINTS, 0),
          ARG_TOTALS: (SIZE_CAPACITY, 0), ARG_STARTS: (SIZE_STARTS, 0),
          ARG_PLAN_BLOCKS: (SIZE_BLOCKS, 0), ARG_LOG: (SIZE_LOG, 0)}


class LoopArguments:
    """The point loop's arguments, as arrays and as one address block.

    ``arrays`` holds the arrays of :func:`_advance_points_py` in its
    argument order (indices ``ARG_*``); ``block`` is an int64 array with
    each one's data address at the same index, followed by the sizes the C
    entry cannot read off a pointer (``SIZE_*``).  :meth:`set` replaces one
    array and rewrites its address and sizes, so the block changes only
    when the kernel swaps an array (a grown mirror, a new random buffer,
    another run's record or replicas, a re-planned sweep block);
    ``pointer`` is the block's address, ready for a foreign call.  Every kernel owns one, so kernels driven
    from several threads never share arguments.
    """

    __slots__ = ("arrays", "block", "pointer")

    def __init__(self) -> None:
        self.arrays: list = [None] * ARG_COUNT
        self.block = np.zeros(ARG_COUNT + SIZE_COUNT, dtype=np.int64)
        self.pointer = ctypes.c_void_p(self.block.ctypes.data)

    def set(self, index: int, array: np.ndarray) -> None:
        """Pass ``array`` as argument ``index`` from the next entry on."""
        self.arrays[index] = array
        block = self.block
        block[index] = array.ctypes.data
        size = _SIZES.get(index)
        if size is not None:
            position, axis = size
            block[position] = array.shape[axis]


def _lookup_registered(configurations, delta_n, ireg, slot, index):
    """Registered slot holding the configuration ``slot`` reaches via ``index``.

    Scans the slots registered since the last re-key (slots ``0`` to
    ``ireg[REG_REGISTERED] - 1``), latest first, for the configuration
    ``configurations[slot] + delta_n[index]``; ``-1`` when none holds it.
    The registered slots are exactly the memo entries of the current memo
    epoch the run has met, so a hit is the link the kernel would make (a
    memo lookup, with no side effect), and a miss is a discovery the kernel
    must make.
    """
    n_islands = configurations.shape[1]
    candidate = ireg[REG_REGISTERED] - 1
    while candidate >= 0:
        island = 0
        while island < n_islands and configurations[candidate, island] == \
                configurations[slot, island] + delta_n[index, island]:
            island += 1
        if island == n_islands:
            return candidate
        candidate -= 1
    return -1


def _adopt_speculated(totals, cumulative, last_selectable, configurations,
                      delta_n, slot_rows, plan_totals, plan_cumulative,
                      plan_last, ireg, slot, index):
    """Register the planned successor ``slot`` reaches via ``index``.

    ``slot_rows[slot]`` is the plan-mirror row of a slot the loop registered
    (a root row is a multiple of ``events + 1``, and the root's event-``k``
    successor is row ``k + 1`` after it), or ``-1`` for a slot the kernel
    registered.  A successor of a planned root gets the speculated row the
    kernel would adopt (:meth:`MonteCarloKernel._descend`), so the loop
    registers it in the next slot itself, counting one more configuration
    since the last exact solve, while the resync count is below the
    interval, the memo (the registered slots) below its cap and the
    mirrors have room.  Returns the new slot, or ``-1`` when the kernel
    must discover the configuration.
    """
    n_events = cumulative.shape[1]
    registered = ireg[REG_REGISTERED]
    row = slot_rows[slot]
    if row < 0 or row % (n_events + 1) != 0 or registered == 0 \
            or ireg[REG_RESYNC] >= ireg[REG_RESYNC_INTERVAL] \
            or registered >= ireg[REG_MEMO_LIMIT] \
            or registered >= totals.shape[0]:
        return -1
    row += index + 1
    totals[registered] = plan_totals[row]
    for event in range(n_events):
        cumulative[registered, event] = plan_cumulative[row, event]
    last_selectable[registered] = plan_last[row]
    for island in range(configurations.shape[1]):
        configurations[registered, island] = configurations[slot, island] \
            + delta_n[index, island]
    slot_rows[registered] = row
    ireg[REG_REGISTERED] = registered + 1
    ireg[REG_RESYNC] += 1
    return registered


def _root_sorts_after(roots, first, second):
    """Whether root row ``first`` sorts after ``second`` by (configuration, slot)."""
    for column in range(2, roots.shape[1]):
        if roots[first, column] != roots[second, column]:
            return roots[first, column] > roots[second, column]
    return roots[first, 0] > roots[second, 0]


def _root_from_plan(totals, cumulative, last_selectable, successor_slots,
                    configurations, slots, slot_rows, starts, roots,
                    plan_points, plan_configurations, plan_blocks,
                    plan_totals, plan_cumulative, plan_last, ireg):
    """Root point ``ireg[REG_POINT]`` from the plan mirror; whether it could.

    The roots are the configuration a cold sweep starts the point from
    (``starts``), else the replicas' distinct slots ordered by
    (configuration, slot) — the order the kernel gives them — collected
    in ``roots`` (per row: the old slot, the mirror row, the
    configuration).  Each root must have a mirror block covering the
    point's plan index ``plan_points[point]``: block ``b`` holds the
    configuration ``plan_configurations[b]`` for plan points
    ``plan_blocks[b, 0]`` to ``plan_blocks[b, 1] - 1`` with its row at the
    first of them ``plan_blocks[b, 2]``, one ``events + 1`` stride per
    point.  The point is left to the kernel (nothing written) when the
    plan may not be used (``REG_PLANNED``), the point is not planned, a
    memo-cap clear took the registered slots out of the memo, two slots
    hold one configuration, the roots would fill the memo or the mirrors,
    or a root has no covering block.  Otherwise the cursor is re-keyed in
    place as the kernel re-keys it: the links of the registered slots are
    cleared, root ``i`` takes slot ``i`` with its planned row, every
    replica moves to its root's slot, and the resync count restarts.
    """
    registered = ireg[REG_REGISTERED]
    if ireg[REG_PLANNED] == 0 or registered == 0:
        return False
    point = ireg[REG_POINT]
    planned = plan_points[point]
    if planned < 0:
        return False
    n_islands = configurations.shape[1]
    n_events = cumulative.shape[1]
    n_replicas = slots.shape[0]
    cold = starts.shape[0] > 0
    count = 0
    if cold:
        roots[0, 0] = -1
        for island in range(n_islands):
            roots[0, island + 2] = starts[point, island]
        count = 1
    else:
        for replica in range(n_replicas):
            slot = slots[replica]
            known = False
            for root in range(count):
                if roots[root, 0] == slot:
                    known = True
            if known:
                continue
            roots[count, 0] = slot
            for island in range(n_islands):
                roots[count, island + 2] = configurations[slot, island]
            position = count
            count += 1
            while position > 0 and _root_sorts_after(roots, position - 1,
                                                     position):
                for column in range(n_islands + 2):
                    held = roots[position, column]
                    roots[position, column] = roots[position - 1, column]
                    roots[position - 1, column] = held
                position -= 1
        for root in range(1, count):
            island = 0
            while island < n_islands and \
                    roots[root, island + 2] == roots[root - 1, island + 2]:
                island += 1
            if island == n_islands:
                return False
    if count >= ireg[REG_MEMO_LIMIT] or count > totals.shape[0]:
        return False
    stride = n_events + 1
    for root in range(count):
        roots[root, 1] = -1
        for block in range(plan_blocks.shape[0]):
            if plan_blocks[block, 0] <= planned < plan_blocks[block, 1]:
                island = 0
                while island < n_islands and plan_configurations[
                        block, island] == roots[root, island + 2]:
                    island += 1
                if island == n_islands:
                    roots[root, 1] = plan_blocks[block, 2] \
                        + (planned - plan_blocks[block, 0]) * stride
                    break
        if roots[root, 1] < 0:
            return False
    for slot in range(registered):
        for event in range(n_events):
            successor_slots[slot, event] = -1
    for replica in range(n_replicas):
        root = 0
        if not cold:
            while roots[root, 0] != slots[replica]:
                root += 1
        slots[replica] = root
    for root in range(count):
        row = roots[root, 1]
        totals[root] = plan_totals[row]
        for event in range(n_events):
            cumulative[root, event] = plan_cumulative[row, event]
        last_selectable[root] = plan_last[row]
        for island in range(n_islands):
            configurations[root, island] = roots[root, island + 2]
        slot_rows[root] = row
    ireg[REG_REGISTERED] = count
    ireg[REG_RESYNC] = 0
    ireg[REG_LOOP_ROOTED] = 1
    return True


def _log_row(log, position, time, event, slot):
    """Write event-log row ``position``; the next position (a log with no
    rows writes nothing)."""
    if log.shape[0] == 0:
        return position
    log[position, 0] = time
    log[position, 1] = event
    log[position, 2] = slot
    return position + 1


def _advance_py(totals, cumulative, last_selectable, successor_slots,
                configurations, transfer_matrix, delta_n, slot_rows,
                plan_totals, plan_cumulative, plan_last,
                transfers, exp_buf, uni_buf, log, ireg, freg, max_events):
    """Advance the trajectory until done or the kernel is needed.

    One call executes as many events as the register state, the random
    block buffers and the linked successor matrix allow, mutating
    ``transfers``/``log``/``ireg``/``freg`` in place and returning a
    ``STATUS_*`` code.  An unlinked transition whose target is a registered
    slot is linked here (:func:`_lookup_registered`), and one to the
    speculated successor of a root the loop took from the plan is
    registered here (:func:`_adopt_speculated`); only another new
    configuration returns ``STATUS_NEED_LINK``.  This is the canonical
    implementation: the numba backend compiles exactly this function and
    the C backend is its line-for-line translation, so all three consume
    the random stream identically.
    """
    n_events = cumulative.shape[1]
    n_junctions = transfer_matrix.shape[1]
    slot = ireg[REG_SLOT]
    events = ireg[REG_EVENTS]
    exp_pos = ireg[REG_EXP_POS]
    uni_pos = ireg[REG_UNI_POS]
    pending_event = ireg[REG_PENDING_EVENT]
    stalls = ireg[REG_STALLS]
    log_pos = ireg[REG_LOG]
    time = freg[FREG_TIME]
    wait = freg[FREG_PENDING_WAIT]
    start = freg[FREG_START]
    duration = freg[FREG_DURATION]
    exp_len = exp_buf.shape[0]
    uni_len = uni_buf.shape[0]
    log_len = log.shape[0]
    bounded = duration < _INF
    status = STATUS_DONE
    while True:
        if wait < 0.0:
            # Start a new event: budget checks, blockade handling, waiting
            # time — the order of the step loop the advance loop replaced.
            if events >= max_events:
                status = STATUS_DONE
                break
            if bounded and time - start >= duration:
                status = STATUS_DONE
                break
            if log_len > 0 and log_pos >= log_len:
                status = STATUS_LOG_FULL
                break
            total = totals[slot]
            if total <= 0.0:
                if bounded:
                    remaining = duration - (time - start)
                    time = time + remaining
                    log_pos = _log_row(log, log_pos, time, -1, slot)
                    if time - start >= duration:
                        status = STATUS_DONE
                        break
                    stalls += 1
                    if stalls > 3:
                        status = STATUS_DONE
                        break
                    continue
                log_pos = _log_row(log, log_pos, time, -1, slot)
                stalls += 1
                if stalls > 3:
                    status = STATUS_BLOCKED
                    break
                continue
            if exp_pos >= exp_len:
                status = STATUS_NEED_EXP
                break
            wait = exp_buf[exp_pos] / total
            exp_pos += 1
            if bounded:
                remaining = duration - (time - start)
                if wait > remaining:
                    # Censored: burn the remaining budget, apply nothing.
                    time = time + remaining
                    wait = -1.0
                    log_pos = _log_row(log, log_pos, time, -1, slot)
                    if time - start >= duration:
                        status = STATUS_DONE
                        break
                    stalls += 1
                    if stalls > 3:
                        status = STATUS_DONE
                        break
                    continue
        if pending_event < 0:
            if uni_pos >= uni_len:
                status = STATUS_NEED_UNIFORM
                break
            threshold = uni_buf[uni_pos] * totals[slot]
            uni_pos += 1
            # count(cumulative <= threshold) over the non-decreasing row is
            # exactly searchsorted(..., side="right"), clamped to the last
            # positive-rate event.
            index = 0
            while index < n_events and cumulative[slot, index] <= threshold:
                index += 1
            last = last_selectable[slot]
            if index > last:
                index = last
        else:
            index = pending_event
            pending_event = -1
        successor = successor_slots[slot, index]
        if successor < 0:
            successor = _lookup_registered(configurations, delta_n, ireg,
                                           slot, index)
            if successor < 0:
                successor = _adopt_speculated(
                    totals, cumulative, last_selectable, configurations,
                    delta_n, slot_rows, plan_totals, plan_cumulative,
                    plan_last, ireg, slot, index)
            if successor < 0:
                pending_event = index
                status = STATUS_NEED_LINK
                break
            successor_slots[slot, index] = successor
        time = time + wait
        for junction in range(n_junctions):
            transfers[junction] = transfers[junction] \
                + transfer_matrix[index, junction]
        slot = successor
        log_pos = _log_row(log, log_pos, time, index, slot)
        events += 1
        stalls = 0
        wait = -1.0
    ireg[REG_SLOT] = slot
    ireg[REG_EVENTS] = events
    ireg[REG_EXP_POS] = exp_pos
    ireg[REG_UNI_POS] = uni_pos
    ireg[REG_PENDING_EVENT] = pending_event
    ireg[REG_STALLS] = stalls
    ireg[REG_LOG] = log_pos
    freg[FREG_TIME] = time
    freg[FREG_PENDING_WAIT] = wait
    return status


def _advance_points_py(totals, cumulative, last_selectable, successor_slots,
                       configurations, transfer_matrix, delta_n,
                       slots, times, counts, transfers, schedule, phase_times,
                       phase_counts, phase_transfers, exp_buf, uni_buf, ireg,
                       freg, slot_rows, starts, roots, plan_points,
                       plan_configurations, plan_blocks, plan_totals,
                       plan_cumulative, plan_last, log):
    """Advance every replica through every phase of every point until done
    or the kernel is needed.

    Each backend's single entry point.  At point ``q``, phase ``p`` runs
    replica ``r`` from ``slots[r]``/``times[r]`` for at most
    ``schedule[p]`` events through :func:`_advance_py`; its final slot and
    clock are written back, its executed events added to ``counts[r]`` and
    its transfers to row ``r`` of ``transfers``, and the three are
    snapshotted into row ``p + 1`` of point ``q`` of
    ``phase_times``/``phase_counts``/``phase_transfers``.  Every replica
    finishes phase ``p`` before any starts ``p + 1``.  After the last phase
    of a point that is not the last, every replica's clock, count and
    transfer row are zeroed and row ``0`` of the next point is written.
    The loop then roots the new point from the plan mirror
    (:func:`_root_from_plan`); where it cannot, it returns
    ``STATUS_NEED_ROOTS``: the kernel re-keys the replicas' slots to the
    new point's rate tables and sets ``REG_ROOTED``.  ``REG_POINT``, ``REG_PHASE``, ``REG_REPLICA`` and ``REG_LOADED`` persist
    across re-entries, so a refill or link request mid-replica resumes that
    replica exactly where it stopped.  Replicas run in order and share the
    block buffers, so the random stream is consumed exactly as by one
    kernel call per phase covering all replicas.
    """
    n_points = phase_times.shape[0]
    n_phases = schedule.shape[0]
    n_replicas = slots.shape[0]
    n_junctions = transfers.shape[1]
    while True:
        point = ireg[REG_POINT]
        if ireg[REG_ROOTED] == 0:
            if not _root_from_plan(totals, cumulative, last_selectable,
                                   successor_slots, configurations, slots,
                                   slot_rows, starts, roots, plan_points,
                                   plan_configurations, plan_blocks,
                                   plan_totals, plan_cumulative, plan_last,
                                   ireg):
                return STATUS_NEED_ROOTS
            ireg[REG_ROOTED] = 1
        while ireg[REG_PHASE] < n_phases:
            phase = ireg[REG_PHASE]
            while ireg[REG_REPLICA] < n_replicas:
                replica = ireg[REG_REPLICA]
                if ireg[REG_LOADED] == 0:
                    ireg[REG_SLOT] = slots[replica]
                    ireg[REG_EVENTS] = 0
                    ireg[REG_PENDING_EVENT] = -1
                    ireg[REG_STALLS] = 0
                    freg[FREG_TIME] = times[replica]
                    freg[FREG_PENDING_WAIT] = -1.0
                    freg[FREG_START] = times[replica]
                    ireg[REG_LOADED] = 1
                status = _advance_py(totals, cumulative, last_selectable,
                                     successor_slots, configurations,
                                     transfer_matrix, delta_n, slot_rows,
                                     plan_totals, plan_cumulative, plan_last,
                                     transfers[replica], exp_buf, uni_buf,
                                     log, ireg, freg, schedule[phase])
                if status != STATUS_DONE and status != STATUS_BLOCKED:
                    return status
                slots[replica] = ireg[REG_SLOT]
                times[replica] = freg[FREG_TIME]
                counts[replica] += ireg[REG_EVENTS]
                phase_times[point, phase + 1, replica] = times[replica]
                phase_counts[point, phase + 1, replica] = counts[replica]
                for junction in range(n_junctions):
                    phase_transfers[point, phase + 1, replica, junction] = \
                        transfers[replica, junction]
                ireg[REG_LOADED] = 0
                ireg[REG_REPLICA] = replica + 1
            ireg[REG_REPLICA] = 0
            ireg[REG_PHASE] = phase + 1
        if point + 1 >= n_points:
            return STATUS_DONE
        # A new bias point: zero the clocks (a blockaded point may have run
        # a clock to ~1/rate, after which float64 resolves no nanosecond
        # step) and the counters, whose rows 0 start the next point.
        for replica in range(n_replicas):
            times[replica] = 0.0
            counts[replica] = 0
            phase_times[point + 1, 0, replica] = 0.0
            phase_counts[point + 1, 0, replica] = 0
            for junction in range(n_junctions):
                transfers[replica, junction] = 0.0
                phase_transfers[point + 1, 0, replica, junction] = 0.0
        ireg[REG_POINT] = point + 1
        ireg[REG_PHASE] = 0
        ireg[REG_ROOTED] = 0


# ----------------------------------------------------------------- C backend

#: Line-for-line C translation of :func:`_lookup_registered` (``lookup``),
#: :func:`_adopt_speculated`, :func:`_root_sorts_after`,
#: :func:`_root_from_plan`, :func:`_log_row`, :func:`_advance_py`
#: (``advance``; the plan
#: mirror's three row arrays travel as one ``plan_rows`` struct) and
#: :func:`_advance_points_py` (the
#: exported entry point, which reads every array address and size from one
#: int64 block laid out as :class:`LoopArguments` documents).  Compiled
#: without any fast-math flag: IEEE double semantics must match numpy
#: scalar arithmetic exactly for the seeded replay tests to hold bit for
#: bit.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

static long long lookup(
    const long long *configurations, const long long *delta_n,
    const long long *ireg, long long slot, long long index,
    long long n_islands)
{
    const long long *from = configurations + slot * n_islands;
    const long long *step = delta_n + index * n_islands;
    for (long long candidate = ireg[9] - 1; candidate >= 0; candidate--) {
        const long long *row = configurations + candidate * n_islands;
        long long island = 0;
        while (island < n_islands && row[island] == from[island] + step[island])
            island += 1;
        if (island == n_islands) return candidate;
    }
    return -1;
}

typedef struct {
    const double *totals;
    const double *cumulative;
    const long long *last;
} plan_rows;

static long long adopt_speculated(
    double *totals, double *cumulative, long long *last_selectable,
    long long *configurations, const long long *delta_n,
    long long *slot_rows, plan_rows plan, long long *ireg,
    long long slot, long long index, long long n_events,
    long long n_islands, long long capacity)
{
    long long registered = ireg[9];
    long long row = slot_rows[slot];
    if (row < 0 || row % (n_events + 1) != 0 || registered == 0
            || ireg[12] >= ireg[13] || registered >= ireg[14]
            || registered >= capacity)
        return -1;
    row += index + 1;
    totals[registered] = plan.totals[row];
    for (long long event = 0; event < n_events; event++)
        cumulative[registered * n_events + event] =
            plan.cumulative[row * n_events + event];
    last_selectable[registered] = plan.last[row];
    for (long long island = 0; island < n_islands; island++)
        configurations[registered * n_islands + island] =
            configurations[slot * n_islands + island]
            + delta_n[index * n_islands + island];
    slot_rows[registered] = row;
    ireg[9] = registered + 1;
    ireg[12] += 1;
    return registered;
}

static int root_sorts_after(const long long *roots, long long width,
                            long long first, long long second)
{
    for (long long column = 2; column < width; column++)
        if (roots[first * width + column] != roots[second * width + column])
            return roots[first * width + column]
                > roots[second * width + column];
    return roots[first * width] > roots[second * width];
}

static int root_from_plan(
    double *totals, double *cumulative, long long *last_selectable,
    long long *successor_slots, long long *configurations, long long *slots,
    long long *slot_rows, const long long *starts, long long n_starts,
    long long *roots, const long long *plan_points,
    const long long *plan_configurations, const long long *plan_blocks,
    long long n_blocks, plan_rows plan, long long *ireg,
    long long n_replicas, long long n_events, long long n_islands,
    long long capacity)
{
    long long registered = ireg[9];
    if (ireg[15] == 0 || registered == 0) return 0;
    long long point = ireg[10];
    long long planned = plan_points[point];
    if (planned < 0) return 0;
    long long width = n_islands + 2;
    int cold = n_starts > 0;
    long long count = 0;
    if (cold) {
        roots[0] = -1;
        for (long long island = 0; island < n_islands; island++)
            roots[island + 2] = starts[point * n_islands + island];
        count = 1;
    } else {
        for (long long replica = 0; replica < n_replicas; replica++) {
            long long slot = slots[replica];
            int known = 0;
            for (long long root = 0; root < count; root++)
                if (roots[root * width] == slot) known = 1;
            if (known) continue;
            roots[count * width] = slot;
            for (long long island = 0; island < n_islands; island++)
                roots[count * width + island + 2] =
                    configurations[slot * n_islands + island];
            long long position = count;
            count += 1;
            while (position > 0
                   && root_sorts_after(roots, width, position - 1, position)) {
                for (long long column = 0; column < width; column++) {
                    long long held = roots[position * width + column];
                    roots[position * width + column] =
                        roots[(position - 1) * width + column];
                    roots[(position - 1) * width + column] = held;
                }
                position -= 1;
            }
        }
        for (long long root = 1; root < count; root++) {
            long long island = 0;
            while (island < n_islands && roots[root * width + island + 2]
                   == roots[(root - 1) * width + island + 2])
                island += 1;
            if (island == n_islands) return 0;
        }
    }
    if (count >= ireg[14] || count > capacity) return 0;
    long long stride = n_events + 1;
    for (long long root = 0; root < count; root++) {
        roots[root * width + 1] = -1;
        for (long long block = 0; block < n_blocks; block++) {
            const long long *span = plan_blocks + block * 3;
            if (span[0] <= planned && planned < span[1]) {
                long long island = 0;
                while (island < n_islands
                       && plan_configurations[block * n_islands + island]
                       == roots[root * width + island + 2])
                    island += 1;
                if (island == n_islands) {
                    roots[root * width + 1] =
                        span[2] + (planned - span[0]) * stride;
                    break;
                }
            }
        }
        if (roots[root * width + 1] < 0) return 0;
    }
    for (long long slot = 0; slot < registered; slot++)
        for (long long event = 0; event < n_events; event++)
            successor_slots[slot * n_events + event] = -1;
    for (long long replica = 0; replica < n_replicas; replica++) {
        long long root = 0;
        if (!cold)
            while (roots[root * width] != slots[replica]) root += 1;
        slots[replica] = root;
    }
    for (long long root = 0; root < count; root++) {
        long long row = roots[root * width + 1];
        totals[root] = plan.totals[row];
        for (long long event = 0; event < n_events; event++)
            cumulative[root * n_events + event] =
                plan.cumulative[row * n_events + event];
        last_selectable[root] = plan.last[row];
        for (long long island = 0; island < n_islands; island++)
            configurations[root * n_islands + island] =
                roots[root * width + island + 2];
        slot_rows[root] = row;
    }
    ireg[9] = count;
    ireg[12] = 0;
    ireg[16] = 1;
    return 1;
}

static long long log_row(double *log, long long log_len, long long position,
                         double time, long long event, long long slot)
{
    if (log_len == 0) return position;
    log[position * 3] = time;
    log[position * 3 + 1] = (double)event;
    log[position * 3 + 2] = (double)slot;
    return position + 1;
}

static long long advance(
    double *totals,
    double *cumulative,
    long long *last_selectable,
    long long *successor_slots,
    long long *configurations,
    const double *transfer_matrix,
    const long long *delta_n,
    long long *slot_rows,
    plan_rows plan,
    double *transfers,
    const double *exp_buf, long long exp_len,
    const double *uni_buf, long long uni_len,
    double *log, long long log_len,
    long long *ireg, double *freg,
    long long max_events, long long n_events, long long n_junctions,
    long long n_islands, long long capacity)
{
    long long slot = ireg[0];
    long long events = ireg[1];
    long long exp_pos = ireg[2];
    long long uni_pos = ireg[3];
    long long pending_event = ireg[4];
    long long stalls = ireg[5];
    long long log_pos = ireg[17];
    double time = freg[0];
    double wait = freg[1];
    double start = freg[2];
    double duration = freg[3];
    int bounded = isfinite(duration);
    long long status = 0;  /* DONE */
    for (;;) {
        if (wait < 0.0) {
            if (events >= max_events) { status = 0; break; }
            if (bounded && time - start >= duration) { status = 0; break; }
            if (log_len > 0 && log_pos >= log_len) { status = 6; break; }
            double total = totals[slot];
            if (total <= 0.0) {
                if (bounded) {
                    double remaining = duration - (time - start);
                    time = time + remaining;
                    log_pos = log_row(log, log_len, log_pos, time, -1, slot);
                    if (time - start >= duration) { status = 0; break; }
                    stalls += 1;
                    if (stalls > 3) { status = 0; break; }
                    continue;
                }
                log_pos = log_row(log, log_len, log_pos, time, -1, slot);
                stalls += 1;
                if (stalls > 3) { status = 1; break; }  /* BLOCKED */
                continue;
            }
            if (exp_pos >= exp_len) { status = 2; break; }  /* NEED_EXP */
            wait = exp_buf[exp_pos] / total;
            exp_pos += 1;
            if (bounded) {
                double remaining = duration - (time - start);
                if (wait > remaining) {
                    time = time + remaining;
                    wait = -1.0;
                    log_pos = log_row(log, log_len, log_pos, time, -1, slot);
                    if (time - start >= duration) { status = 0; break; }
                    stalls += 1;
                    if (stalls > 3) { status = 0; break; }
                    continue;
                }
            }
        }
        long long index;
        if (pending_event < 0) {
            if (uni_pos >= uni_len) { status = 3; break; }  /* NEED_UNIFORM */
            double threshold = uni_buf[uni_pos] * totals[slot];
            uni_pos += 1;
            const double *row = cumulative + slot * n_events;
            index = 0;
            while (index < n_events && row[index] <= threshold) index += 1;
            long long last = last_selectable[slot];
            if (index > last) index = last;
        } else {
            index = pending_event;
            pending_event = -1;
        }
        long long successor = successor_slots[slot * n_events + index];
        if (successor < 0) {
            successor = lookup(configurations, delta_n, ireg, slot, index,
                               n_islands);
            if (successor < 0)
                successor = adopt_speculated(
                    totals, cumulative, last_selectable, configurations,
                    delta_n, slot_rows, plan, ireg, slot, index, n_events,
                    n_islands, capacity);
            if (successor < 0) {
                pending_event = index;
                status = 4;  /* NEED_LINK */
                break;
            }
            successor_slots[slot * n_events + index] = successor;
        }
        time = time + wait;
        const double *transfer_row = transfer_matrix + index * n_junctions;
        for (long long junction = 0; junction < n_junctions; junction++)
            transfers[junction] = transfers[junction]
                + transfer_row[junction];
        slot = successor;
        log_pos = log_row(log, log_len, log_pos, time, index, slot);
        events += 1;
        stalls = 0;
        wait = -1.0;
    }
    ireg[0] = slot;
    ireg[1] = events;
    ireg[2] = exp_pos;
    ireg[3] = uni_pos;
    ireg[4] = pending_event;
    ireg[5] = stalls;
    ireg[17] = log_pos;
    freg[0] = time;
    freg[1] = wait;
    return status;
}

#define ARRAY(type, index) ((type *)(intptr_t)block[index])

long long repro_mc_advance_points(const long long *block)
{
    double *totals = ARRAY(double, 0);
    double *cumulative = ARRAY(double, 1);
    long long *last_selectable = ARRAY(long long, 2);
    long long *successor_slots = ARRAY(long long, 3);
    long long *configurations = ARRAY(long long, 4);
    const double *transfer_matrix = ARRAY(const double, 5);
    const long long *delta_n = ARRAY(const long long, 6);
    long long *slots = ARRAY(long long, 7);
    double *times = ARRAY(double, 8);
    long long *counts = ARRAY(long long, 9);
    double *transfers = ARRAY(double, 10);
    const long long *schedule = ARRAY(const long long, 11);
    double *phase_times = ARRAY(double, 12);
    long long *phase_counts = ARRAY(long long, 13);
    double *phase_transfers = ARRAY(double, 14);
    const double *exp_buf = ARRAY(const double, 15);
    const double *uni_buf = ARRAY(const double, 16);
    long long *ireg = ARRAY(long long, 17);
    double *freg = ARRAY(double, 18);
    long long *slot_rows = ARRAY(long long, 19);
    const long long *starts = ARRAY(const long long, 20);
    long long *roots = ARRAY(long long, 21);
    const long long *plan_points = ARRAY(const long long, 22);
    const long long *plan_configurations = ARRAY(const long long, 23);
    const long long *plan_blocks = ARRAY(const long long, 24);
    plan_rows plan = {ARRAY(const double, 25), ARRAY(const double, 26),
                      ARRAY(const long long, 27)};
    double *log = ARRAY(double, 28);
    long long exp_len = block[29];
    long long uni_len = block[30];
    long long n_phases = block[31];
    long long n_replicas = block[32];
    long long n_events = block[33];
    long long n_junctions = block[34];
    long long n_islands = block[35];
    long long n_points = block[36];
    long long capacity = block[37];
    long long n_starts = block[38];
    long long n_blocks = block[39];
    long long log_len = block[40];
    long long rows = n_phases + 1;
    for (;;) {
        long long point = ireg[10];
        if (ireg[11] == 0) {
            if (!root_from_plan(
                    totals, cumulative, last_selectable, successor_slots,
                    configurations, slots, slot_rows, starts, n_starts,
                    roots, plan_points, plan_configurations, plan_blocks,
                    n_blocks, plan, ireg, n_replicas, n_events, n_islands,
                    capacity))
                return 5;  /* NEED_ROOTS */
            ireg[11] = 1;
        }
        while (ireg[8] < n_phases) {
            long long phase = ireg[8];
            while (ireg[6] < n_replicas) {
                long long replica = ireg[6];
                if (ireg[7] == 0) {
                    ireg[0] = slots[replica];
                    ireg[1] = 0;
                    ireg[4] = -1;
                    ireg[5] = 0;
                    freg[0] = times[replica];
                    freg[1] = -1.0;
                    freg[2] = times[replica];
                    ireg[7] = 1;
                }
                double *row = transfers + replica * n_junctions;
                long long status = advance(
                    totals, cumulative, last_selectable, successor_slots,
                    configurations, transfer_matrix, delta_n, slot_rows,
                    plan, row, exp_buf, exp_len, uni_buf, uni_len, log,
                    log_len, ireg, freg,
                    schedule[phase], n_events, n_junctions, n_islands,
                    capacity);
                if (status != 0 && status != 1) return status;  /* DONE, BLOCKED */
                slots[replica] = ireg[0];
                times[replica] = freg[0];
                counts[replica] += ireg[1];
                long long snapshot = (point * rows + phase + 1) * n_replicas
                    + replica;
                phase_times[snapshot] = times[replica];
                phase_counts[snapshot] = counts[replica];
                for (long long junction = 0; junction < n_junctions; junction++)
                    phase_transfers[snapshot * n_junctions + junction] =
                        row[junction];
                ireg[7] = 0;
                ireg[6] = replica + 1;
            }
            ireg[6] = 0;
            ireg[8] = phase + 1;
        }
        if (point + 1 >= n_points) return 0;  /* DONE */
        for (long long replica = 0; replica < n_replicas; replica++) {
            long long snapshot = (point + 1) * rows * n_replicas + replica;
            times[replica] = 0.0;
            counts[replica] = 0;
            phase_times[snapshot] = 0.0;
            phase_counts[snapshot] = 0;
            for (long long junction = 0; junction < n_junctions; junction++) {
                transfers[replica * n_junctions + junction] = 0.0;
                phase_transfers[snapshot * n_junctions + junction] = 0.0;
            }
        }
        ireg[10] = point + 1;
        ireg[8] = 0;
        ireg[11] = 0;
    }
}
"""


def _cc_cache_dir() -> Path:
    """Directory holding compiled shared libraries, keyed by source hash."""
    override = os.environ.get(_ENV_CACHE_DIR)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-jit"


def _find_compiler() -> Optional[str]:
    """The system C compiler to use, or ``None`` when none is on PATH."""
    import shutil

    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_cc_library() -> Optional[Path]:
    """Compile (or reuse) the shared library of the C advance loop.

    Returns the library path, or ``None`` when no compiler is available or
    the build fails — the caller then falls through to the next backend.
    """
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    for directory in (_cc_cache_dir(), Path(tempfile.gettempdir()) / "repro-jit"):
        library = directory / f"mc_advance_{digest}.so"
        if library.exists():
            return library
        # Per-process scratch names: a concurrent build never compiles a
        # half-written source or loads a half-written library.
        stem = f".mc_advance_{digest}.{os.getpid()}"
        source = directory / f"{stem}.c"
        scratch = directory / f"{stem}.so"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            source.write_text(_C_SOURCE)
            subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", "-o", str(scratch),
                 str(source), "-lm"],
                check=True, capture_output=True, timeout=120)
            os.replace(scratch, library)  # atomic against concurrent builds
            return library
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            for leftover in (source, scratch):
                try:
                    leftover.unlink()
                except OSError:
                    pass
    return None


def _load_cc_advance() -> Optional[Callable]:
    """Build, load, and wrap the C backend; ``None`` on any failure."""
    library_path = _compile_cc_library()
    if library_path is None:
        return None
    try:
        library = ctypes.CDLL(str(library_path))
        native = library.repro_mc_advance_points
    except (OSError, AttributeError):
        return None
    native.restype = ctypes.c_longlong
    native.argtypes = [ctypes.c_void_p]

    def advance(arguments: LoopArguments) -> int:
        """ctypes shim: the point loop over the arguments' address block."""
        return native(arguments.pointer)

    return advance


def _interpreted_advance(arguments: LoopArguments) -> int:
    """The interpreted point loop over the arguments' arrays."""
    return _advance_points_py(*arguments.arrays)


@functools.lru_cache(maxsize=None)
def _load_numba_advance() -> Optional[Callable]:
    """Compile the point loop with numba; ``None`` when unavailable.

    ``register_jitable`` makes the event loop and the helpers it and the
    point loop call (link lookup, speculated adoption, rooting from the
    plan) compile wherever jitted code calls them, so
    :func:`_advance_points_py` compiles unchanged while all of them stay
    plain Python for the interpreted backend.  Memoised so re-resolution
    (``clear_backend_cache``) registers them once.
    """
    try:
        import numba
        from numba.extending import register_jitable
    except ImportError:
        return None
    try:
        for helper in (_lookup_registered, _adopt_speculated,
                       _root_sorts_after, _root_from_plan, _log_row,
                       _advance_py):
            register_jitable(helper)
        compiled = numba.njit(cache=True)(_advance_points_py)
    except Exception:  # pragma: no cover - defensive against numba quirks
        return None

    def advance(arguments: LoopArguments) -> int:
        """The compiled point loop over the arguments' arrays."""
        return compiled(*arguments.arrays)

    return advance


# -------------------------------------------------------- backend resolution

_LOADERS: Dict[str, Callable[[], Optional[Callable]]] = {
    BACKEND_NUMBA: _load_numba_advance,
    BACKEND_CC: _load_cc_advance,
    BACKEND_PYTHON: lambda: _interpreted_advance,
}

#: Resolved ``(name, callable)`` per requested backend (``None`` key = auto).
_resolved: Dict[Optional[str], Tuple[str, Callable]] = {}


def resolve_advance(backend: Optional[str] = None) -> Tuple[str, Callable]:
    """The point loop of ``backend`` (default: the best available).

    Resolution order for the default request is numba, then the C backend,
    then the interpreted Python loop (which always succeeds), overridable
    globally through ``$REPRO_JIT_BACKEND``.  Results are cached per
    process, so repeated kernels share one compiled artefact.

    Parameters
    ----------
    backend:
        One of ``"numba"``, ``"cc"``, ``"python"``, or ``None`` for the
        environment-resolved default.

    Returns
    -------
    (name, callable):
        The backend that actually loaded and its point-loop function,
        which takes a kernel's :class:`LoopArguments` and returns a
        ``STATUS_*`` code.

    Raises
    ------
    repro.errors.SimulationError
        For an unknown backend name, or when an explicitly requested
        native backend cannot be loaded.
    """
    from ..errors import SimulationError

    cached = _resolved.get(backend)
    if cached is not None:
        return cached
    request = backend
    if request is None:
        request = os.environ.get(_ENV_BACKEND) or None
    if request is not None and request not in _BACKENDS:
        raise SimulationError(
            f"unknown jit backend {request!r}; choose from {_BACKENDS}")
    candidates = (request,) if request is not None else (
        BACKEND_NUMBA, BACKEND_CC, BACKEND_PYTHON)
    for name in candidates:
        advance = _LOADERS[name]()
        if advance is not None:
            if request is None and name == BACKEND_PYTHON:
                # Auto-resolution exhausted every native backend: record the
                # degradation so operators see why the JIT engines are slow.
                from ..resilience.events import emit_degradation

                emit_degradation("jit.run_compiled", "fallback:python",
                                 "no native advance backend (numba/cc) "
                                 "could be loaded")
            _resolved[backend] = (name, advance)
            return name, advance
    raise SimulationError(
        f"jit backend {request!r} is not available in this environment "
        "(set REPRO_JIT_BACKEND=python for the interpreted fallback)")


def jit_backend() -> str:
    """Name of the advance-loop backend the default resolution picks."""
    return resolve_advance()[0]


def jit_compiled() -> bool:
    """Whether a *native* (numba or C) advance loop is active.

    With only the interpreted loop on offer every Monte-Carlo run gives the
    same events at Python speed.
    """
    try:
        return jit_backend() != BACKEND_PYTHON
    except Exception:
        return False


def clear_backend_cache() -> None:
    """Forget resolved backends (tests flip ``REPRO_JIT_BACKEND`` at runtime)."""
    _resolved.clear()


__all__ = [
    "BACKEND_CC",
    "BACKEND_NUMBA",
    "BACKEND_PYTHON",
    "FREG_DURATION",
    "FREG_PENDING_WAIT",
    "FREG_SIZE",
    "FREG_START",
    "FREG_TIME",
    "IREG_SIZE",
    "LoopArguments",
    "REG_EVENTS",
    "REG_EXP_POS",
    "REG_LOADED",
    "REG_LOG",
    "REG_LOOP_ROOTED",
    "REG_MEMO_LIMIT",
    "REG_PENDING_EVENT",
    "REG_PHASE",
    "REG_PLANNED",
    "REG_POINT",
    "REG_REGISTERED",
    "REG_REPLICA",
    "REG_RESYNC",
    "REG_RESYNC_INTERVAL",
    "REG_ROOTED",
    "REG_SLOT",
    "REG_STALLS",
    "REG_UNI_POS",
    "STATUS_BLOCKED",
    "STATUS_DONE",
    "STATUS_LOG_FULL",
    "STATUS_NEED_EXP",
    "STATUS_NEED_LINK",
    "STATUS_NEED_ROOTS",
    "STATUS_NEED_UNIFORM",
    "clear_backend_cache",
    "jit_backend",
    "jit_compiled",
    "resolve_advance",
]
