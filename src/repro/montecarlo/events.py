"""Event candidates of the kinetic Monte-Carlo engine.

Three kinds of events can occur in a single-electron circuit:

* first-order tunnelling of one electron through one junction,
* inelastic co-tunnelling of an electron through two junctions sharing an
  island (second order), and
* a charge trap capturing or emitting an electron (random telegraph noise).

Each candidate knows its label and which junctions it moves charge
through; the kernel turns them into the rows of its event tables (a
configuration change, a transfer row) and its event records' labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..circuit.elements import ChargeTrap
from ..core.energy import TunnelEvent


@dataclass(frozen=True)
class TunnelCandidate:
    """A first-order tunnel event through one junction."""

    event: TunnelEvent

    @property
    def label(self) -> str:
        """Human-readable identifier used in trajectory records."""
        return (f"tunnel:{self.event.junction.name}:"
                f"{self.event.source_node}->{self.event.target_node}")

    def charge_transfers(self) -> List[Tuple[str, int]]:
        """``(junction name, electron direction)`` pairs of this event."""
        return [(self.event.junction.name, self.event.direction)]


@dataclass(frozen=True)
class CotunnelCandidate:
    """An inelastic co-tunnelling event through two junctions.

    The electron effectively moves from ``first.source_node`` to
    ``second.target_node`` while the intermediate island occupation is only
    virtual; the net charge configuration change is the composition of the two
    elementary events.
    """

    first: TunnelEvent
    second: TunnelEvent

    @property
    def label(self) -> str:
        """Human-readable identifier used in trajectory records."""
        return (f"cotunnel:{self.first.junction.name}+{self.second.junction.name}:"
                f"{self.first.source_node}->{self.second.target_node}")

    def charge_transfers(self) -> List[Tuple[str, int]]:
        """Both junctions carry one electron in their respective directions."""
        return [(self.first.junction.name, self.first.direction),
                (self.second.junction.name, self.second.direction)]


@dataclass(frozen=True)
class TrapCandidate:
    """A capture or emission event of a background-charge trap."""

    trap: ChargeTrap
    capture: bool

    @property
    def label(self) -> str:
        """Human-readable identifier used in trajectory records."""
        kind = "capture" if self.capture else "emission"
        return f"trap:{self.trap.name}:{kind}"

    def charge_transfers(self) -> List[Tuple[str, int]]:
        """Trap transitions move no charge through any junction."""
        return []


__all__ = ["TunnelCandidate", "CotunnelCandidate", "TrapCandidate"]
