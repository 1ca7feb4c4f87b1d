"""Text netlist parser and writer.

The format is deliberately close to SPICE decks and to the input decks of
dedicated single-electron simulators such as SIMON, so circuits can be kept in
version-controlled text files::

    * A single-electron transistor
    .circuit set
    island dot
    vsource VD drain  1mV
    vsource VG gate   0V
    junction J1 drain dot  c=1aF  r=100kOhm
    junction J2 dot   gnd  c=1aF  r=100kOhm
    cap      CG gate  dot  c=2aF
    offset   dot 0.25e
    trap     T1 dot coupling=0.1e capture=1us emission=2us
    .end

Lines starting with ``*`` or ``#`` are comments.  Values accept engineering
suffixes (``aF``, ``fF``, ``kOhm``, ``mV``, ``us`` ...) and charges may be
given in units of the elementary charge with an ``e`` suffix.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..constants import E_CHARGE
from ..errors import NetlistParseError
from .elements import Capacitor, ChargeTrap, TunnelJunction
from .netlist import Circuit

# Multipliers for engineering suffixes.  Longest suffixes must be matched
# first, which the regex alternation below takes care of by ordering.
_UNIT_SCALES: Dict[str, float] = {
    # capacitance
    "zf": 1e-21, "af": 1e-18, "ff": 1e-15, "pf": 1e-12, "nf": 1e-9, "uf": 1e-6,
    "f": 1.0,
    # resistance
    "gohm": 1e9, "mohm_r": 1e6, "kohm": 1e3, "ohm": 1.0,
    # voltage
    "kv": 1e3, "v": 1.0, "mv": 1e-3, "uv": 1e-6, "nv": 1e-9,
    # time
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15,
    # charge
    "c": 1.0, "e": E_CHARGE,
    # current
    "a": 1.0, "ma": 1e-3, "ua": 1e-6, "na": 1e-9, "pa": 1e-12,
    # temperature / bare numbers
    "k": 1e3,
}

_VALUE_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$"
)


def parse_value(text: str) -> float:
    """Parse a numeric value with an optional engineering-unit suffix.

    ``"1aF"`` -> ``1e-18``, ``"100kOhm"`` -> ``1e5``, ``"0.25e"`` -> charge in
    coulomb, ``"5mV"`` -> ``5e-3``, plain numbers pass through unchanged.
    """
    match = _VALUE_RE.match(text)
    if match is None:
        raise NetlistParseError(f"cannot parse value {text!r}")
    number = float(match.group(1))
    suffix = match.group(2).lower()
    if not suffix:
        return number
    # Resistance "MOhm" clashes with millivolt-style prefixes once lowered, so
    # treat "mohm" explicitly as mega-ohm (SPICE convention "meg" also works).
    if suffix == "mohm" or suffix == "megohm" or suffix == "meg":
        return number * 1e6
    if suffix in _UNIT_SCALES:
        return number * _UNIT_SCALES[suffix]
    raise NetlistParseError(f"unknown unit suffix {match.group(2)!r} in {text!r}")


def _parse_keyword_values(tokens: List[str], line_number: int,
                          line: str) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for token in tokens:
        if "=" not in token:
            raise NetlistParseError(
                f"expected key=value, got {token!r}", line_number, line
            )
        key, _, raw = token.partition("=")
        key = key.strip().lower()
        try:
            values[key] = parse_value(raw)
        except NetlistParseError as exc:
            raise NetlistParseError(str(exc), line_number, line) from None
    return values


def _require(values: Dict[str, float], keys: Tuple[str, ...], what: str,
             line_number: int, line: str) -> float:
    for key in keys:
        if key in values:
            return values[key]
    raise NetlistParseError(
        f"{what} requires one of the parameters {keys}", line_number, line
    )


def parse_netlist(text: str) -> Circuit:
    """Parse a netlist string into a :class:`Circuit`."""
    circuit: Optional[Circuit] = None
    pending_name = "circuit"
    ended = False

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("*", 1)[0].split("#", 1)[0].strip() \
            if not raw_line.lstrip().startswith(("*", "#")) else ""
        if not line:
            continue
        if ended:
            raise NetlistParseError("content after .end directive", line_number, raw_line)
        tokens = line.split()
        keyword = tokens[0].lower()

        if keyword == ".circuit":
            if circuit is not None:
                raise NetlistParseError("duplicate .circuit directive",
                                        line_number, raw_line)
            pending_name = tokens[1] if len(tokens) > 1 else "circuit"
            circuit = Circuit(pending_name)
            continue
        if keyword == ".end":
            ended = True
            continue

        if circuit is None:
            circuit = Circuit(pending_name)

        try:
            _dispatch_statement(circuit, keyword, tokens, line_number, raw_line)
        except NetlistParseError:
            raise
        except Exception as exc:  # re-wrap circuit errors with line context
            raise NetlistParseError(str(exc), line_number, raw_line) from exc

    if circuit is None:
        raise NetlistParseError("netlist contains no statements")
    return circuit


def _dispatch_statement(circuit: Circuit, keyword: str, tokens: List[str],
                        line_number: int, raw_line: str) -> None:
    if keyword == "island":
        if len(tokens) < 2:
            raise NetlistParseError("island requires a name", line_number, raw_line)
        name = tokens[1]
        values = _parse_keyword_values(tokens[2:], line_number, raw_line)
        circuit.add_island(name, offset_charge=values.get("q0", 0.0))
        return

    if keyword in ("vsource", "v"):
        if len(tokens) < 4:
            raise NetlistParseError(
                "vsource requires: vsource NAME NODE VOLTAGE", line_number, raw_line
            )
        circuit.add_voltage_source(tokens[1], tokens[2], parse_value(tokens[3]))
        return

    if keyword in ("junction", "j"):
        if len(tokens) < 4:
            raise NetlistParseError(
                "junction requires: junction NAME NODE_A NODE_B c=... r=...",
                line_number, raw_line
            )
        values = _parse_keyword_values(tokens[4:], line_number, raw_line)
        capacitance = _require(values, ("c", "capacitance"), "junction",
                               line_number, raw_line)
        resistance = _require(values, ("r", "resistance"), "junction",
                              line_number, raw_line)
        circuit.add_junction(tokens[1], tokens[2], tokens[3], capacitance, resistance)
        return

    if keyword in ("cap", "capacitor", "c"):
        if len(tokens) < 4:
            raise NetlistParseError(
                "cap requires: cap NAME NODE_A NODE_B c=...", line_number, raw_line
            )
        values = _parse_keyword_values(tokens[4:], line_number, raw_line)
        capacitance = _require(values, ("c", "capacitance"), "capacitor",
                               line_number, raw_line)
        circuit.add_capacitor(tokens[1], tokens[2], tokens[3], capacitance)
        return

    if keyword == "offset":
        if len(tokens) < 3:
            raise NetlistParseError(
                "offset requires: offset ISLAND CHARGE", line_number, raw_line
            )
        circuit.set_offset_charge(tokens[1], parse_value(tokens[2]))
        return

    if keyword == "trap":
        if len(tokens) < 3:
            raise NetlistParseError(
                "trap requires: trap NAME ISLAND coupling=... capture=... emission=...",
                line_number, raw_line
            )
        values = _parse_keyword_values(tokens[3:], line_number, raw_line)
        coupling = _require(values, ("coupling", "q"), "trap", line_number, raw_line)
        capture = _require(values, ("capture", "tau_c"), "trap", line_number, raw_line)
        emission = _require(values, ("emission", "tau_e"), "trap",
                            line_number, raw_line)
        circuit.add_charge_trap(tokens[1], tokens[2], coupling, capture, emission)
        return

    raise NetlistParseError(f"unknown statement {keyword!r}", line_number, raw_line)


def write_netlist(circuit: Circuit) -> str:
    """Serialise a circuit back to the text netlist format.

    The output round-trips through :func:`parse_netlist`: parsing the written
    text yields an equivalent circuit (same nodes, elements and parameters).
    """
    lines: List[str] = [f".circuit {circuit.name}"]
    for island in circuit.islands():
        lines.append(f"island {island.name}")
    for source in circuit.voltage_sources():
        lines.append(f"vsource {source.name} {source.node} {source.voltage!r}")
    driven = {source.node for source in circuit.voltage_sources()}
    for node in circuit.source_nodes():
        if node.kind.value != "ground" and node.name not in driven:
            lines.append(f"vsource V_{node.name} {node.name} {node.voltage!r}")
    for element in circuit.elements():
        if isinstance(element, TunnelJunction):
            lines.append(
                f"junction {element.name} {element.node_a} {element.node_b} "
                f"c={element.capacitance!r} r={element.resistance!r}"
            )
        elif isinstance(element, Capacitor):
            lines.append(
                f"cap {element.name} {element.node_a} {element.node_b} "
                f"c={element.capacitance!r}"
            )
        elif isinstance(element, ChargeTrap):
            lines.append(
                f"trap {element.name} {element.island} coupling={element.coupling!r} "
                f"capture={element.capture_time!r} emission={element.emission_time!r}"
            )
    for island in circuit.islands():
        if island.offset_charge != 0.0:
            lines.append(f"offset {island.name} {island.offset_charge!r}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


__all__ = ["parse_value", "parse_netlist", "write_netlist"]
