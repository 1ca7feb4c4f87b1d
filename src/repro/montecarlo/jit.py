"""Compiled hot loop for the kinetic Monte-Carlo kernel.

The per-event :meth:`~repro.montecarlo.kernel.MonteCarloKernel.step` loop
pays Python-level dispatch once per event.  This module holds the *entire*
inner loop — rate-table lookup, cumulative-row event selection,
configuration update, transfer accounting and time accumulation — as one
function that runs thousands of events per call over the flat arrays
exported by the kernel's ``_EnsembleCursor`` mirrors, compiled to native
code where a compiler is available.  Every Monte-Carlo run without charge
traps or per-event hooks goes through it.

Backend ladder
--------------
Three interchangeable implementations of the same loop exist, picked at
first use (override with ``REPRO_JIT_BACKEND``).  Each is one callable: the
replica loop :func:`_advance_replicas_py` around the event loop
:func:`_advance_py`, so a scalar run (one replica) and an ``R``-replica
ensemble run enter the backend through the same function.

``numba``
    :func:`numba.njit` with ``cache=True`` applied to the *same* Python
    source as the interpreted fallback (the event loop registered as
    jitable first, then the replica loop that calls it), so the compiled
    artefact shares the tested control flow line for line.  Optional — the
    import is gated, not ``try/except``-ed at call sites.
``cc``
    A line-for-line C translation compiled on demand with the system C
    compiler (``cc``/``gcc``) into a per-source-hash shared library loaded
    through :mod:`ctypes`.  No third-party dependency; IEEE semantics are
    preserved (no ``-ffast-math``), which is what makes the seeded replay
    tests bit-exact.  The shim declares ``c_void_p`` arguments and keeps
    the last call's arrays with ready-made ``c_void_p`` pointers to them,
    rebuilding a pointer only when a different array object arrives
    (holding the array keeps the address valid), so a re-entry costs the
    bare foreign call.
``python``
    The interpreted loop itself.  Always available; slow, but the
    correctness reference for the re-entry protocol.

:func:`jit_compiled` reports whether a *native* backend (numba or cc) is
active.  The Monte-Carlo engines run this loop on every backend; the
interpreted one gives the same events at Python speed.

Phase schedule
--------------
One call runs a whole *schedule*: an int64 array of per-replica event
budgets, one per phase (the scalar estimator's warm-up and its ten blocks;
the ensemble estimator's warm-up and its estimate window; a plain run is a
one-phase schedule).  Phases run phase-major — every replica finishes phase
``p`` before any starts ``p + 1`` — so the random stream is consumed
exactly as by one driver call per phase.  When replica ``r`` finishes phase
``p`` its clock, cumulative event count and transfer row are snapshotted
into row ``p + 1`` of the ``phase_times`` / ``phase_counts`` /
``phase_transfers`` outputs (row ``0`` holds the start state and is the
caller's), so per-phase charges and durations are row differences.  An
optional time budget (``FREG_DURATION``) applies to every phase.

Re-entry protocol
-----------------
The native loop cannot call back into Python (for RNG block refills or
lazy successor linking), so it runs until it either finishes or needs the
driver, returning a status code:

========================  ====================================================
``STATUS_DONE``           every phase of every replica ran to its budget
``STATUS_BLOCKED``        no event has a positive rate and no time budget
``STATUS_NEED_EXP``       the exponential block buffer is exhausted
``STATUS_NEED_UNIFORM``   the uniform block buffer is exhausted
``STATUS_NEED_LINK``      a (configuration, event) transition is unlinked
========================  ====================================================

``STATUS_DONE`` and ``STATUS_BLOCKED`` end one replica's phase inside the
event loop; the replica loop commits and snapshots it and moves on,
returning ``STATUS_DONE`` after the last phase of the last replica.  The
other three codes return to the driver at once.

All resumable state lives in two small register arrays (``ireg``/``freg``)
so the driver can refill a buffer or link a successor and re-enter
mid-event:

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
``FREG_TIME``              the replica's clock
``FREG_PENDING_WAIT``      drawn-but-unapplied waiting time (-1.0: none)
``FREG_START``             the replica's clock at the start of this phase
``FREG_DURATION``          per-replica, per-phase time budget (+inf: none)
=========================  ===================================================

A schedule therefore costs one native entry plus one per refill or link,
however many replicas and phases it advances.  ``REG_PHASE`` and
``REG_REPLICA`` also tell a driver whose re-entry raised how far the
schedule got: replicas below ``REG_REPLICA`` have finished phase
``REG_PHASE``, the others only the phases before it.  Buffer refills happen
exactly at the consumption points, preserving the step loop's interleaved
draw order from the shared generator — the property that makes an
event-for-event replay of :meth:`MonteCarloKernel.step` possible.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import operator
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: Status codes returned by every backend's advance loop.
STATUS_DONE = 0
STATUS_BLOCKED = 1
STATUS_NEED_EXP = 2
STATUS_NEED_UNIFORM = 3
STATUS_NEED_LINK = 4

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
IREG_SIZE = 9

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


def _advance_py(totals, cumulative, last_selectable, successor_slots,
                transfer_matrix, transfers, exp_buf, uni_buf,
                ireg, freg, max_events):
    """Advance the trajectory until done or the driver is needed.

    One call executes as many events as the register state, the random
    block buffers and the linked successor matrix allow, mutating
    ``transfers``/``ireg``/``freg`` in place and returning a ``STATUS_*``
    code.  This is the canonical implementation: the numba backend compiles
    exactly this function and the C backend is its line-for-line
    translation, so all three consume the random stream identically.
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
            pending_event = index
            status = STATUS_NEED_LINK
            break
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


def _advance_replicas_py(totals, cumulative, last_selectable,
                         successor_slots, transfer_matrix, slots, times,
                         counts, transfers, schedule, phase_times,
                         phase_counts, phase_transfers, exp_buf, uni_buf,
                         ireg, freg):
    """Advance every replica through every phase until done or the driver is needed.

    Each backend's single entry point.  Phase ``p`` runs replica ``r`` from
    ``slots[r]``/``times[r]`` for at most ``schedule[p]`` events through
    :func:`_advance_py`; its final slot and clock are written back, its
    executed events added to ``counts[r]`` and its transfers to row ``r``
    of ``transfers``, and the three are snapshotted into row ``p + 1`` of
    ``phase_times``/``phase_counts``/``phase_transfers``.  Every replica
    finishes phase ``p`` before any starts ``p + 1``.  ``REG_PHASE``,
    ``REG_REPLICA`` and ``REG_LOADED`` persist across re-entries, so a
    refill or link request mid-replica resumes that replica exactly where
    it stopped.  Replicas run in order and share the block buffers, so the
    random stream is consumed exactly as by one driver call per phase
    covering all replicas.
    """
    n_phases = schedule.shape[0]
    n_replicas = slots.shape[0]
    n_junctions = transfers.shape[1]
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
                                 successor_slots, transfer_matrix,
                                 transfers[replica], exp_buf, uni_buf, ireg,
                                 freg, schedule[phase])
            if status != STATUS_DONE and status != STATUS_BLOCKED:
                return status
            slots[replica] = ireg[REG_SLOT]
            times[replica] = freg[FREG_TIME]
            counts[replica] += ireg[REG_EVENTS]
            phase_times[phase + 1, replica] = times[replica]
            phase_counts[phase + 1, replica] = counts[replica]
            for junction in range(n_junctions):
                phase_transfers[phase + 1, replica, junction] = \
                    transfers[replica, junction]
            ireg[REG_LOADED] = 0
            ireg[REG_REPLICA] = replica + 1
        ireg[REG_REPLICA] = 0
        ireg[REG_PHASE] = phase + 1
    return STATUS_DONE


# ----------------------------------------------------------------- C backend

#: Line-for-line C translation of :func:`_advance_py` (``advance``) and of
#: :func:`_advance_replicas_py` (the exported entry point).
#: Compiled without any fast-math flag: IEEE double semantics must match
#: numpy scalar arithmetic exactly for the seeded replay tests to hold bit
#: for bit.
_C_SOURCE = r"""
#include <math.h>

static long long advance(
    const double *totals,
    const double *cumulative,
    const long long *last_selectable,
    const long long *successor_slots,
    const double *transfer_matrix,
    double *transfers,
    const double *exp_buf, long long exp_len,
    const double *uni_buf, long long uni_len,
    long long *ireg, double *freg,
    long long max_events, long long n_events, long long n_junctions)
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
            pending_event = index;
            status = 4;  /* NEED_LINK */
            break;
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

long long repro_mc_advance_replicas(
    const double *totals,
    const double *cumulative,
    const long long *last_selectable,
    const long long *successor_slots,
    const double *transfer_matrix,
    long long *slots, double *times, long long *counts, double *transfers,
    const long long *schedule, double *phase_times, long long *phase_counts,
    double *phase_transfers,
    const double *exp_buf, const double *uni_buf,
    long long *ireg, double *freg,
    long long exp_len, long long uni_len, long long n_phases,
    long long n_replicas, long long n_events, long long n_junctions)
{
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
                transfer_matrix, row, exp_buf, exp_len, uni_buf, uni_len,
                ireg, freg, schedule[phase], n_events, n_junctions);
            if (status != 0 && status != 1) return status;  /* DONE, BLOCKED */
            slots[replica] = ireg[0];
            times[replica] = freg[0];
            counts[replica] += ireg[1];
            long long snapshot = (phase + 1) * n_replicas + replica;
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
    return 0;  /* DONE */
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
        native = library.repro_mc_advance_replicas
    except (OSError, AttributeError):
        return None
    native.restype = ctypes.c_longlong
    native.argtypes = [ctypes.c_void_p] * 17 + [ctypes.c_longlong] * 6
    #: ``(arrays, arguments)`` of the last call, swapped as one tuple so
    #: concurrent callers always read a consistent pair.  The arguments are
    #: ready-made ctypes objects (17 pointers, then 6 sizes), which the call
    #: passes without converting.  Holding the arrays keeps their buffers
    #: alive, so a pointer stays valid while its array is held; a call
    #: rebuilds only the pointers of arrays that changed (an array keeps its
    #: shape, so the sizes follow from the arrays).
    last = [((None,) * 17, (None,) * 17)]

    def advance(*arrays):
        """ctypes shim matching the replica loop's signature."""
        held, arguments = last[0]
        if not all(map(operator.is_, arrays, held)):
            pointers = tuple(
                pointer if array is previous
                else ctypes.c_void_p(array.ctypes.data)
                for array, previous, pointer in zip(arrays, held, arguments))
            sizes = (arrays[13].shape[0], arrays[14].shape[0],
                     arrays[9].shape[0], arrays[5].shape[0],
                     arrays[1].shape[1], arrays[4].shape[1])
            arguments = pointers + tuple(map(ctypes.c_longlong, sizes))
            last[0] = (arrays, arguments)
        return native(*arguments)

    return advance


@functools.lru_cache(maxsize=None)
def _load_numba_advance() -> Optional[Callable]:
    """Compile the replica loop with numba; ``None`` when unavailable.

    ``register_jitable`` makes the event loop compile wherever jitted code
    calls it, so :func:`_advance_replicas_py` compiles unchanged while both
    functions stay plain Python for the interpreted backend.  Memoised so
    re-resolution (``clear_backend_cache``) registers the event loop once.
    """
    try:
        import numba
        from numba.extending import register_jitable
    except ImportError:
        return None
    try:
        register_jitable(_advance_py)
        return numba.njit(cache=True)(_advance_replicas_py)
    except Exception:  # pragma: no cover - defensive against numba quirks
        return None


# -------------------------------------------------------- backend resolution

_LOADERS: Dict[str, Callable[[], Optional[Callable]]] = {
    BACKEND_NUMBA: _load_numba_advance,
    BACKEND_CC: _load_cc_advance,
    BACKEND_PYTHON: lambda: _advance_replicas_py,
}

#: Resolved ``(name, callable)`` per requested backend (``None`` key = auto).
_resolved: Dict[Optional[str], Tuple[str, Callable]] = {}


def resolve_advance(backend: Optional[str] = None) -> Tuple[str, Callable]:
    """The replica loop of ``backend`` (default: the best available).

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
        The backend that actually loaded and its replica-loop function
        (the signature of :func:`_advance_replicas_py`).

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
    "REG_EVENTS",
    "REG_EXP_POS",
    "REG_LOADED",
    "REG_PENDING_EVENT",
    "REG_PHASE",
    "REG_REPLICA",
    "REG_SLOT",
    "REG_STALLS",
    "REG_UNI_POS",
    "STATUS_BLOCKED",
    "STATUS_DONE",
    "STATUS_NEED_EXP",
    "STATUS_NEED_LINK",
    "STATUS_NEED_UNIFORM",
    "clear_backend_cache",
    "jit_backend",
    "jit_compiled",
    "resolve_advance",
]
