"""Deterministic fault injection at named sites (the chaos harness).

The production code is instrumented with a handful of *named sites* — one
line each, zero-cost when the harness is inactive:

* :func:`inject` sites may raise an armed exception or sleep an armed delay
  (simulated crashes, solver failures, hangs);
* :func:`inject_value` sites may replace or mutate a value flowing through
  them (NaN payloads, corrupted cache artifact bytes).

Tests build a :class:`FaultInjector`, arm one or more sites with a
:class:`FaultSpec` (fail the first ``times`` calls, skip the first ``after``,
or fire with a seeded ``probability``), and activate it as a context
manager::

    injector = FaultInjector(seed=7)
    injector.arm("steadystate.splu", error=RuntimeError("injected"),
                 times=None)           # every call
    with injector:
        session.sweep(axes)            # exercises the fallback ladder
    assert injector.fired("steadystate.splu") > 0

Determinism: per-site call/fire counters plus a :mod:`random` generator
seeded at construction make every chaos run replayable — the same seed and
the same call sequence fire the same faults.

Only the sites listed in :data:`SITES` may be armed; arming a typo raises
immediately instead of silently never firing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, Optional

from ..errors import FaultInjected, ResilienceError

#: The named injection sites wired into the production code, with the kind
#: of fault each one can carry.  ``error`` sites honour ``error``/``delay_s``
#: arms; ``value`` sites additionally honour ``value``/``mutate`` arms.
SITES: Dict[str, str] = {
    "session.solve":
        "error/delay before each per-point solve in the failure-policy "
        "executor (per-point retries, timeouts)",
    "sweep.fast":
        "error before the optimistic whole-sweep fast path of a "
        "policy-carrying Session.sweep (forces per-point salvage) and "
        "before each stacked block of a policed master stream (forces "
        "its per-point replay)",
    "executor.pool":
        "error at process-pool dispatch of a parallel policy sweep "
        "(simulated worker crash; recovery recomputes serially)",
    "checkpoint.chunk":
        "error before computing one checkpoint chunk (simulated mid-sweep "
        "crash; completed chunks stay persisted)",
    "steadystate.splu":
        "error before the sparse LU rung of the stationary-solve ladder",
    "steadystate.gmres":
        "error before the GMRES rung of the stationary-solve ladder",
    "steadystate.dense":
        "error before the dense rung of the stationary-solve ladder",
    "master.current":
        "value site on the master-equation session's per-point current "
        "(NaN payloads for the health guard)",
    "montecarlo.current":
        "value site on the Monte-Carlo session's per-point current "
        "(NaN payloads for the health guard)",
    "jit.run_compiled":
        "error at the start of each point of a native Monte-Carlo "
        "advance-loop run (exercises the fallback to the interpreted "
        "loop)",
    "cache.load":
        "value site on the artifact bytes read by ResultCache.load "
        "(truncation/mutation simulates on-disk corruption)",
    "cache.store":
        "error inside ResultCache.store (simulated unwritable cache "
        "directory; the store degrades instead of crashing the run)",
    "design.point":
        "error before evaluating one design-scan grid point (per-point "
        "degrade under the scan's failure policy: unknown verdict, NaN "
        "margins)",
    "design.chunk":
        "error before computing one design-scan checkpoint chunk "
        "(simulated mid-scan crash; completed chunks stay persisted and "
        "the scan resumes bit-identically)",
}

#: Sentinel distinguishing "no replacement value armed" from ``None``.
_UNSET = object()


@dataclass
class FaultSpec:
    """How one armed site misbehaves, plus its live counters.

    Parameters
    ----------
    site:
        The armed site name (must be in :data:`SITES`).
    error:
        Exception instance or zero-argument factory/class to raise when the
        site fires.  ``None`` with no ``value``/``mutate``/``delay_s`` arms
        raises :class:`~repro.errors.FaultInjected`.
    after:
        Number of initial calls that pass through unharmed.
    times:
        Number of calls (after ``after``) that fire; ``None`` fires forever.
    probability:
        Optional per-call fire probability drawn from the injector's seeded
        generator (evaluated after the ``after``/``times`` gates).
    delay_s:
        Optional sleep, in seconds, executed when the site fires (simulated
        hang for timeout enforcement tests).
    value:
        Replacement payload returned by a firing :func:`inject_value` site.
    mutate:
        Alternative to ``value``: callable applied to the flowing value
        (e.g. truncate artifact bytes).
    """

    site: str
    error: Any = None
    after: int = 0
    times: Optional[int] = 1
    probability: Optional[float] = None
    delay_s: Optional[float] = None
    value: Any = _UNSET
    mutate: Optional[Callable[[Any], Any]] = None
    calls: int = field(default=0, init=False)
    fires: int = field(default=0, init=False)


class FaultInjector:
    """A seeded, deterministic registry of armed fault sites.

    Parameters
    ----------
    seed:
        Seed of the internal generator used by probabilistic arms; two
        injectors with the same seed and call sequence fire identically.
    """

    def __init__(self, seed: int = 0) -> None:
        self._random = Random(seed)
        self._armed: Dict[str, FaultSpec] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- arming

    def arm(self, site: str, *, error: Any = None, after: int = 0,
            times: Optional[int] = 1, probability: Optional[float] = None,
            delay_s: Optional[float] = None, value: Any = _UNSET,
            mutate: Optional[Callable[[Any], Any]] = None) -> FaultSpec:
        """Arm one site (see :class:`FaultSpec` for the knobs).

        Parameters
        ----------
        site:
            Site name; must be one of :data:`SITES`.
        error, after, times, probability, delay_s, value, mutate:
            Forwarded to :class:`FaultSpec`.

        Returns
        -------
        FaultSpec
            The armed spec (its counters update live).
        """
        if site not in SITES:
            raise ResilienceError(
                f"unknown fault site {site!r}; known sites: {sorted(SITES)}")
        if after < 0 or (times is not None and times < 0):
            raise ResilienceError("after/times must be non-negative")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ResilienceError("probability must be within [0, 1]")
        spec = FaultSpec(site=site, error=error, after=after, times=times,
                         probability=probability, delay_s=delay_s,
                         value=value, mutate=mutate)
        with self._lock:
            self._armed[site] = spec
        return spec

    def disarm(self, site: str) -> bool:
        """Disarm one site; returns whether it was armed."""
        with self._lock:
            return self._armed.pop(site, None) is not None

    def reset(self) -> None:
        """Disarm every site."""
        with self._lock:
            self._armed.clear()

    def fired(self, site: str) -> int:
        """How many times an armed site actually fired (0 when unarmed)."""
        with self._lock:
            spec = self._armed.get(site)
        return 0 if spec is None else spec.fires

    def calls(self, site: str) -> int:
        """How many times an armed site was reached (0 when unarmed)."""
        with self._lock:
            spec = self._armed.get(site)
        return 0 if spec is None else spec.calls

    # ------------------------------------------------------------- firing

    def _should_fire(self, spec: FaultSpec) -> bool:
        with self._lock:
            spec.calls += 1
            if spec.calls <= spec.after:
                return False
            if spec.times is not None and spec.fires >= spec.times:
                return False
            if spec.probability is not None \
                    and self._random.random() >= spec.probability:
                return False
            spec.fires += 1
            return True

    def _raise_from(self, spec: FaultSpec) -> None:
        error = spec.error
        if error is None:
            raise FaultInjected(f"injected fault at site {spec.site!r}")
        if isinstance(error, BaseException):
            raise error
        raise error()

    def fire(self, site: str) -> None:
        """Fire an error/delay site: sleep and/or raise when armed."""
        spec = self._armed.get(site)
        if spec is None or not self._should_fire(spec):
            return
        if spec.delay_s is not None:
            time.sleep(spec.delay_s)
        if spec.error is not None or (spec.value is _UNSET
                                      and spec.mutate is None):
            self._raise_from(spec)

    def fire_value(self, site: str, value: Any) -> Any:
        """Fire a value site: replace/mutate ``value``, or raise, when armed."""
        spec = self._armed.get(site)
        if spec is None or not self._should_fire(spec):
            return value
        if spec.delay_s is not None:
            time.sleep(spec.delay_s)
        if spec.mutate is not None:
            return spec.mutate(value)
        if spec.value is not _UNSET:
            return spec.value
        self._raise_from(spec)
        return value  # pragma: no cover - _raise_from always raises

    # ------------------------------------------------------- activation

    def activate(self) -> "FaultInjector":
        """Install this injector as the process-wide active one."""
        global _ACTIVE
        _ACTIVE = self
        return self

    def deactivate(self) -> None:
        """Remove this injector if it is the active one."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "FaultInjector":
        """Activate on entry (``with FaultInjector() as chaos: ...``)."""
        return self.activate()

    def __exit__(self, *_exc_info: Any) -> None:
        """Deactivate on exit, even when the injected fault propagated."""
        self.deactivate()


#: The process-wide active injector (``None`` in production: every site is
#: then a single attribute load plus an ``is None`` test).
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently active injector, or ``None``."""
    return _ACTIVE


def inject(site: str) -> None:
    """Error/delay injection point; no-op unless an active injector armed it."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site)


def inject_value(site: str, value: Any) -> Any:
    """Value injection point; returns ``value`` unless an armed site fires."""
    injector = _ACTIVE
    if injector is None:
        return value
    return injector.fire_value(site, value)


__all__ = [
    "SITES",
    "FaultInjector",
    "FaultSpec",
    "active_injector",
    "inject",
    "inject_value",
]
