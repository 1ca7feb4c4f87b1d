"""Physical validity checks for single-electron circuits.

The orthodox theory the simulators rely on has prerequisites: every island
must be reachable through at least one tunnel junction (otherwise its electron
number can never change and it is really just a floating capacitor plate),
junction resistances must exceed the quantum of resistance, and the
capacitance matrix must be invertible.  :func:`validate_circuit` collects all
violations so a user sees every problem at once rather than one per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..constants import ORTHODOX_RESISTANCE_RATIO, R_QUANTUM
from ..errors import ValidationError
from .elements import TunnelJunction
from .netlist import Circuit


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_circuit`.

    ``errors`` are violations that make simulation meaningless;
    ``warnings`` are conditions under which the orthodox theory is stretched
    (for example a tunnel resistance below ten resistance quanta).
    """

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """Whether the circuit passed every hard check."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise :class:`ValidationError` listing every hard violation."""
        if self.errors:
            raise ValidationError(
                "invalid circuit:\n  - " + "\n  - ".join(self.errors)
            )


def validate_circuit(circuit: Circuit, strict: bool = False) -> ValidationReport:
    """Check a circuit for physical validity.

    Parameters
    ----------
    circuit:
        The circuit to check.
    strict:
        When true, orthodox-theory warnings (junction resistance below
        ``10 R_K``) are promoted to errors.

    Returns
    -------
    ValidationReport
        Collected errors and warnings.  Use
        :meth:`ValidationReport.raise_if_invalid` to turn errors into an
        exception.
    """
    report = ValidationReport()

    islands = circuit.islands()
    junctions = circuit.junctions()

    if not islands:
        report.warnings.append(
            "circuit has no islands; only direct source-to-source tunnelling is possible"
        )

    if not junctions and islands:
        report.errors.append("circuit has islands but no tunnel junctions")

    # Islands must be attached to something, and to at least one junction to
    # have dynamics.
    for island in islands:
        attached = circuit.elements_at(island.name)
        if not attached:
            report.errors.append(f"island {island.name!r} is completely disconnected")
            continue
        junction_count = sum(1 for e in attached if isinstance(e, TunnelJunction))
        if junction_count == 0:
            report.warnings.append(
                f"island {island.name!r} has no tunnel junction; its electron number "
                "can never change (pure floating gate)"
            )

    # Junction sanity.
    for junction in junctions:
        ratio = junction.resistance / R_QUANTUM
        if ratio < 1.0:
            report.errors.append(
                f"junction {junction.name!r} resistance {junction.resistance:.3g} ohm is "
                f"below the resistance quantum {R_QUANTUM:.3g} ohm; orthodox theory "
                "does not apply"
            )
        elif ratio < ORTHODOX_RESISTANCE_RATIO:
            message = (
                f"junction {junction.name!r} resistance is only {ratio:.2f} R_K; "
                f"orthodox theory prefers at least {ORTHODOX_RESISTANCE_RATIO:.0f} R_K"
            )
            if strict:
                report.errors.append(message)
            else:
                report.warnings.append(message)

    # Source nodes should carry a voltage source element (otherwise their
    # voltage silently defaults to the last value set, which is error prone).
    driven = {source.node for source in circuit.voltage_sources()}
    for node in circuit.source_nodes():
        if node.kind.value == "ground":
            continue
        if node.name not in driven:
            report.warnings.append(
                f"source node {node.name!r} has no voltage source element; "
                f"using its stored voltage {node.voltage:.6g} V"
            )

    # Capacitors with both terminals on source nodes are inert.
    for capacitor in circuit.capacitors():
        node_a = circuit.node(capacitor.node_a)
        node_b = circuit.node(capacitor.node_b)
        if node_a.is_source and node_b.is_source:
            report.warnings.append(
                f"capacitor {capacitor.name!r} connects two fixed-potential nodes and "
                "has no effect on the single-electron dynamics"
            )

    # Traps must reference islands (already enforced at construction, but a
    # circuit assembled by hand from dataclasses could bypass that).
    for trap in circuit.charge_traps():
        if not circuit.has_node(trap.island) or not circuit.node(trap.island).is_island:
            report.errors.append(
                f"charge trap {trap.name!r} references {trap.island!r}, which is not an island"
            )

    return report


def assert_valid(circuit: Circuit, strict: bool = False) -> None:
    """Validate ``circuit`` and raise :class:`ValidationError` on any error."""
    validate_circuit(circuit, strict=strict).raise_if_invalid()


__all__ = ["ValidationReport", "validate_circuit", "assert_valid"]
