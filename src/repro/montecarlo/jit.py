"""Compiled hot loop for the kinetic Monte-Carlo kernel.

The per-event :meth:`~repro.montecarlo.kernel.MonteCarloKernel.step` loop
pays Python-level dispatch once per event.  This module holds the *entire*
inner loop — rate-table lookup, cumulative-row event selection,
configuration update, transfer accounting and time accumulation — as one
function that runs thousands of events per call over the flat arrays
exported by the kernel's ``_EnsembleCursor`` mirrors, compiled to native
code where a compiler is available.  Every Monte-Carlo run without charge
traps or per-event hooks goes through it, a whole sweep included.

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
    source as the interpreted fallback (the event loop and the link lookup
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
random stream is consumed exactly as by one driver call per phase.  When
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

Re-entry protocol
-----------------
The native loop cannot call back into Python (for RNG block refills,
successor discovery or a new point's rate tables), so it runs until it
either finishes or needs the driver, returning a status code:

========================  ====================================================
``STATUS_DONE``           every phase of every replica ran at every point
``STATUS_BLOCKED``        no event has a positive rate and no time budget
``STATUS_NEED_EXP``       the exponential block buffer is exhausted
``STATUS_NEED_UNIFORM``   the uniform block buffer is exhausted
``STATUS_NEED_LINK``      a transition reaches a configuration not yet met
``STATUS_NEED_ROOTS``     a new point needs its rate tables (its roots)
========================  ====================================================

``STATUS_DONE`` and ``STATUS_BLOCKED`` end one replica's phase inside the
event loop; the point loop commits and snapshots it and moves on,
returning ``STATUS_DONE`` after the last phase of the last replica at the
last point.  The other codes return to the driver at once.  An unlinked
transition whose target configuration is already registered at this point
is linked inside the loop (a memo hit has no side effect); only a discovery
returns ``STATUS_NEED_LINK``, so the driver keeps the discovery order, the
resync counter and the memo cap.

All resumable state lives in two small register arrays (``ireg``/``freg``)
so the driver can refill a buffer, link a successor or re-key a point and
re-enter mid-event:

=========================  ===================================================
``REG_SLOT``               cursor slot of the advancing replica
``REG_EVENTS``             events that replica executed in this phase
``REG_EXP_POS``            read position in the exponential block buffer
``REG_UNI_POS``            read position in the uniform block buffer
``REG_PENDING_EVENT``      selected-but-unapplied event (-1: none)
``REG_STALLS``             consecutive zero-progress iterations
``REG_REPLICA``            replica currently advancing
``REG_LOADED``             whether that replica's state is in the registers
``REG_PHASE``              schedule phase currently running
``REG_REGISTERED``         registered slots the loop may link to (driver's)
``REG_POINT``              sweep point currently running
``REG_ROOTED``             whether that point's rate tables are in place
``FREG_TIME``              the replica's clock
``FREG_PENDING_WAIT``      drawn-but-unapplied waiting time (-1.0: none)
``FREG_START``             the replica's clock at the start of this phase
``FREG_DURATION``          per-replica, per-phase time budget (+inf: none)
=========================  ===================================================

A schedule therefore costs one native entry, plus one per refill, per
discovered configuration and per point after the first, however many
replicas, phases and points it advances.  ``REG_POINT``, ``REG_PHASE``
and ``REG_REPLICA`` also tell a driver whose re-entry raised how far the
schedule got: replicas below ``REG_REPLICA`` have finished phase
``REG_PHASE`` of point ``REG_POINT``, the others only the phases before
it.  Buffer refills happen exactly at the consumption points, preserving
the step loop's interleaved draw order from the shared generator — the
property that makes an event-for-event replay of
:meth:`MonteCarloKernel.step` possible.
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
IREG_SIZE = 12

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
 ARG_PHASE_TRANSFERS, ARG_EXP, ARG_UNIFORM, ARG_IREG, ARG_FREG) = range(19)
ARG_COUNT = 19
#: Size slots of the address block, after the addresses.
(SIZE_EXP, SIZE_UNIFORM, SIZE_PHASES, SIZE_REPLICAS, SIZE_EVENTS,
 SIZE_JUNCTIONS, SIZE_ISLANDS, SIZE_POINTS) = range(ARG_COUNT, ARG_COUNT + 8)
SIZE_COUNT = 8
#: Which size each argument carries: ``index -> (size slot, axis)``.
_SIZES = {ARG_EXP: (SIZE_EXP, 0), ARG_UNIFORM: (SIZE_UNIFORM, 0),
          ARG_SCHEDULE: (SIZE_PHASES, 0), ARG_SLOTS: (SIZE_REPLICAS, 0),
          ARG_CUMULATIVE: (SIZE_EVENTS, 1),
          ARG_TRANSFER_MATRIX: (SIZE_JUNCTIONS, 1),
          ARG_DELTA_N: (SIZE_ISLANDS, 1),
          ARG_PHASE_TIMES: (SIZE_POINTS, 0)}


class LoopArguments:
    """The point loop's arguments, as arrays and as one address block.

    ``arrays`` holds the nineteen arrays of :func:`_advance_points_py` in its
    argument order (indices ``ARG_*``); ``block`` is an int64 array with
    each one's data address at the same index, followed by the sizes the C
    entry cannot read off a pointer (``SIZE_*``).  :meth:`set` replaces one
    array and rewrites its address and sizes, so the block changes only
    when the kernel swaps an array (a grown mirror, a new random buffer,
    another run's record or replicas); ``pointer`` is the block's address,
    ready for a foreign call.  Every kernel owns one, so kernels driven
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
    epoch the run has met, so a hit is the link the driver would make (a
    memo lookup, with no side effect), and a miss is a discovery the driver
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


def _advance_py(totals, cumulative, last_selectable, successor_slots,
                configurations, transfer_matrix, delta_n,
                transfers, exp_buf, uni_buf, ireg, freg, max_events):
    """Advance the trajectory until done or the driver is needed.

    One call executes as many events as the register state, the random
    block buffers and the linked successor matrix allow, mutating
    ``transfers``/``ireg``/``freg`` in place and returning a ``STATUS_*``
    code.  An unlinked transition whose target is a registered slot is
    linked here (:func:`_lookup_registered`); only a new configuration
    returns ``STATUS_NEED_LINK``.  This is the canonical implementation:
    the numba backend compiles exactly this function and the C backend is
    its line-for-line translation, so all three consume the random stream
    identically.
    """
    n_events = cumulative.shape[1]
    n_junctions = transfer_matrix.shape[1]
    slot = ireg[REG_SLOT]
    events = ireg[REG_EVENTS]
    exp_pos = ireg[REG_EXP_POS]
    uni_pos = ireg[REG_UNI_POS]
    pending_event = ireg[REG_PENDING_EVENT]
    stalls = ireg[REG_STALLS]
    time = freg[FREG_TIME]
    wait = freg[FREG_PENDING_WAIT]
    start = freg[FREG_START]
    duration = freg[FREG_DURATION]
    exp_len = exp_buf.shape[0]
    uni_len = uni_buf.shape[0]
    bounded = duration < _INF
    status = STATUS_DONE
    while True:
        if wait < 0.0:
            # Start a new event: budget checks, blockade handling, waiting
            # time — the same order as the run()/step() loop.
            if events >= max_events:
                status = STATUS_DONE
                break
            if bounded and time - start >= duration:
                status = STATUS_DONE
                break
            total = totals[slot]
            if total <= 0.0:
                if bounded:
                    remaining = duration - (time - start)
                    time = time + remaining
                    if time - start >= duration:
                        status = STATUS_DONE
                        break
                    stalls += 1
                    if stalls > 3:
                        status = STATUS_DONE
                        break
                    continue
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
            # positive-rate event as in the step loop.
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
                pending_event = index
                status = STATUS_NEED_LINK
                break
            successor_slots[slot, index] = successor
        time = time + wait
        for junction in range(n_junctions):
            transfers[junction] = transfers[junction] \
                + transfer_matrix[index, junction]
        slot = successor
        events += 1
        stalls = 0
        wait = -1.0
    ireg[REG_SLOT] = slot
    ireg[REG_EVENTS] = events
    ireg[REG_EXP_POS] = exp_pos
    ireg[REG_UNI_POS] = uni_pos
    ireg[REG_PENDING_EVENT] = pending_event
    ireg[REG_STALLS] = stalls
    freg[FREG_TIME] = time
    freg[FREG_PENDING_WAIT] = wait
    return status


def _advance_points_py(totals, cumulative, last_selectable, successor_slots,
                       configurations, transfer_matrix, delta_n,
                       slots, times, counts, transfers, schedule, phase_times,
                       phase_counts, phase_transfers, exp_buf, uni_buf, ireg,
                       freg):
    """Advance every replica through every phase of every point until done
    or the driver is needed.

    Each backend's single entry point.  At point ``q``, phase ``p`` runs
    replica ``r`` from ``slots[r]``/``times[r]`` for at most
    ``schedule[p]`` events through :func:`_advance_py`; its final slot and
    clock are written back, its executed events added to ``counts[r]`` and
    its transfers to row ``r`` of ``transfers``, and the three are
    snapshotted into row ``p + 1`` of point ``q`` of
    ``phase_times``/``phase_counts``/``phase_transfers``.  Every replica
    finishes phase ``p`` before any starts ``p + 1``.  After the last phase
    of a point that is not the last, every replica's clock, count and
    transfer row are zeroed, row ``0`` of the next point is written, and
    the loop returns ``STATUS_NEED_ROOTS``: the driver re-keys the replicas'
    slots to the new point's rate tables and sets ``REG_ROOTED``.
    ``REG_POINT``, ``REG_PHASE``, ``REG_REPLICA`` and ``REG_LOADED`` persist
    across re-entries, so a refill or link request mid-replica resumes that
    replica exactly where it stopped.  Replicas run in order and share the
    block buffers, so the random stream is consumed exactly as by one
    driver call per phase covering all replicas.
    """
    n_points = phase_times.shape[0]
    n_phases = schedule.shape[0]
    n_replicas = slots.shape[0]
    n_junctions = transfers.shape[1]
    while True:
        point = ireg[REG_POINT]
        if ireg[REG_ROOTED] == 0:
            return STATUS_NEED_ROOTS
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
                                     transfer_matrix, delta_n,
                                     transfers[replica], exp_buf, uni_buf,
                                     ireg, freg, schedule[phase])
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
#: :func:`_advance_py` (``advance``) and :func:`_advance_points_py` (the
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

static long long advance(
    const double *totals,
    const double *cumulative,
    const long long *last_selectable,
    long long *successor_slots,
    const long long *configurations,
    const double *transfer_matrix,
    const long long *delta_n,
    double *transfers,
    const double *exp_buf, long long exp_len,
    const double *uni_buf, long long uni_len,
    long long *ireg, double *freg,
    long long max_events, long long n_events, long long n_junctions,
    long long n_islands)
{
    long long slot = ireg[0];
    long long events = ireg[1];
    long long exp_pos = ireg[2];
    long long uni_pos = ireg[3];
    long long pending_event = ireg[4];
    long long stalls = ireg[5];
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
            double total = totals[slot];
            if (total <= 0.0) {
                if (bounded) {
                    double remaining = duration - (time - start);
                    time = time + remaining;
                    if (time - start >= duration) { status = 0; break; }
                    stalls += 1;
                    if (stalls > 3) { status = 0; break; }
                    continue;
                }
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
    freg[0] = time;
    freg[1] = wait;
    return status;
}

#define ARRAY(type, index) ((type *)(intptr_t)block[index])

long long repro_mc_advance_points(const long long *block)
{
    const double *totals = ARRAY(const double, 0);
    const double *cumulative = ARRAY(const double, 1);
    const long long *last_selectable = ARRAY(const long long, 2);
    long long *successor_slots = ARRAY(long long, 3);
    const long long *configurations = ARRAY(const long long, 4);
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
    long long exp_len = block[19];
    long long uni_len = block[20];
    long long n_phases = block[21];
    long long n_replicas = block[22];
    long long n_events = block[23];
    long long n_junctions = block[24];
    long long n_islands = block[25];
    long long n_points = block[26];
    long long rows = n_phases + 1;
    for (;;) {
        long long point = ireg[10];
        if (ireg[11] == 0) return 5;  /* NEED_ROOTS */
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
                    configurations, transfer_matrix, delta_n, row, exp_buf, exp_len, uni_buf, uni_len, ireg, freg,
                    schedule[phase], n_events, n_junctions, n_islands);
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

    ``register_jitable`` makes the event loop and the link lookup compile
    wherever jitted code calls them, so :func:`_advance_points_py` compiles
    unchanged while all three stay plain Python for the interpreted
    backend.  Memoised so re-resolution (``clear_backend_cache``) registers
    them once.
    """
    try:
        import numba
        from numba.extending import register_jitable
    except ImportError:
        return None
    try:
        register_jitable(_lookup_registered)
        register_jitable(_advance_py)
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
    "REG_PENDING_EVENT",
    "REG_PHASE",
    "REG_POINT",
    "REG_REGISTERED",
    "REG_REPLICA",
    "REG_ROOTED",
    "REG_SLOT",
    "REG_STALLS",
    "REG_UNI_POS",
    "STATUS_BLOCKED",
    "STATUS_DONE",
    "STATUS_NEED_EXP",
    "STATUS_NEED_LINK",
    "STATUS_NEED_ROOTS",
    "STATUS_NEED_UNIFORM",
    "clear_backend_cache",
    "jit_backend",
    "jit_compiled",
    "resolve_advance",
]
