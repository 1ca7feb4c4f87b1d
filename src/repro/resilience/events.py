"""Structured degradation events: the resilience layer's evidence channel.

Every fallback rung the toolkit takes — sparse LU giving way to GMRES, GMRES
giving way to a dense solve, a compiled Monte-Carlo kernel dropping back to
the numpy loop, a worker pool being replaced by serial execution — emits one
:class:`DegradationEvent` through :func:`emit_degradation`.  Events carry the
*site* (a stable dotted name, see :data:`repro.resilience.faults.SITES` for
the injectable subset), the *action* taken (``"fallback:gmres"``,
``"recover:serial"``, ...), and a free-form detail string.

Consumers have two channels:

* the ``repro.resilience`` :mod:`logging` logger (every event is logged at
  WARNING level), for operators;
* :func:`subscribe`/:func:`capture_degradations`, for code — the failure
  policy executor uses a capture scope around each solve to mark points
  whose value was produced through a degraded path.

Emission is cheap and never raises: a failing subscriber is dropped from the
notification loop for that event rather than poisoning the solve that
emitted it.

An attempt whose result may be thrown away (the stacked block of a policed
stream, see :mod:`repro.resilience.execution`) runs inside
``_withheld_degradations``: its events on that thread are logged and
collected for the attempt only, so subscribers never hear about a result
that was replaced.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List

_LOG = logging.getLogger("repro.resilience")

#: Subscriber callbacks, guarded by :data:`_LOCK` (append/remove only; the
#: emission loop iterates over a snapshot).
_SUBSCRIBERS: List[Callable[["DegradationEvent"], None]] = []
_LOCK = threading.Lock()

#: Per-thread ``sink``: the list a ``_withheld_degradations`` scope collects
#: into instead of notifying subscribers (absent or ``None`` outside one).
_LOCAL = threading.local()


@dataclass(frozen=True)
class DegradationEvent:
    """One structured record of a degraded-but-successful execution step.

    Parameters
    ----------
    site:
        Stable dotted name of the place that degraded (e.g.
        ``"steadystate.splu"``).
    action:
        What was done about it (``"fallback:<rung>"``, ``"recover:serial"``,
        ``"fallback:numpy"``, ...).
    detail:
        Free-form context, typically the repr of the triggering exception.
    timestamp:
        Unix time of emission, in seconds.
    """

    site: str
    action: str
    detail: str = ""
    timestamp: float = 0.0

    def as_dict(self) -> dict:
        """The event as a JSON-able dict (structured failure evidence)."""
        return {"site": self.site, "action": self.action,
                "detail": self.detail, "timestamp": self.timestamp}


def emit_degradation(site: str, action: str,
                     detail: str = "") -> DegradationEvent:
    """Emit one degradation event (log + notify subscribers) and return it.

    Parameters
    ----------
    site:
        Dotted name of the degrading site.
    action:
        The recovery action taken.
    detail:
        Optional context (exception repr, rung sizes, ...).

    Returns
    -------
    DegradationEvent
        The emitted event.
    """
    event = DegradationEvent(site=site, action=action, detail=detail,
                             timestamp=time.time())
    _LOG.warning("degraded [%s] %s%s", site, action,
                 f": {detail}" if detail else "")
    sink = getattr(_LOCAL, "sink", None)
    if sink is not None:
        sink.append(event)
        return event
    with _LOCK:
        subscribers = list(_SUBSCRIBERS)
    for callback in subscribers:
        try:
            callback(event)
        except Exception:  # pragma: no cover - subscriber bugs must not
            pass           # poison the solve that emitted the event
    return event


def subscribe(callback: Callable[[DegradationEvent], None]) -> None:
    """Register a callback invoked on every future degradation event."""
    with _LOCK:
        _SUBSCRIBERS.append(callback)


def unsubscribe(callback: Callable[[DegradationEvent], None]) -> None:
    """Remove a previously registered callback (no-op when absent)."""
    with _LOCK:
        try:
            _SUBSCRIBERS.remove(callback)
        except ValueError:
            pass


@contextmanager
def capture_degradations() -> Iterator[List[DegradationEvent]]:
    """Collect every degradation event emitted inside the ``with`` block.

    Yields
    ------
    list of DegradationEvent
        Filled in emission order; inspect it after (or during) the block.
    """
    events: List[DegradationEvent] = []
    subscribe(events.append)
    try:
        yield events
    finally:
        unsubscribe(events.append)


@contextmanager
def _withheld_degradations() -> Iterator[List[DegradationEvent]]:
    """Collect this thread's degradation events instead of notifying anyone.

    Events emitted on the calling thread inside the ``with`` block are still
    logged, but go only to the yielded list: subscribers (outer
    :func:`capture_degradations` scopes included) do not see them.  Events
    of other threads are untouched.

    Yields
    ------
    list of DegradationEvent
        Filled in emission order.
    """
    events: List[DegradationEvent] = []
    outer = getattr(_LOCAL, "sink", None)
    _LOCAL.sink = events
    try:
        yield events
    finally:
        _LOCAL.sink = outer


__all__ = [
    "DegradationEvent",
    "capture_degradations",
    "emit_degradation",
    "subscribe",
    "unsubscribe",
]
