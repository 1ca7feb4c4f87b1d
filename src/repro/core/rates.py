"""Tunnel-rate expressions of the orthodox theory.

Three rate families are provided:

* :func:`orthodox_rate` — the first-order (sequential) tunnelling rate
  ``Gamma(dF) = (-dF / e^2 R) / (1 - exp(dF / kT))`` with its zero-temperature
  and zero-energy limits handled analytically.
* :func:`cotunneling_rate` — the inelastic second-order (co-tunnelling) rate
  through two junctions in series, the process the paper's §4 singles out as
  missing from SPICE macro-models.
* :func:`tunnel_traversal_time` and :func:`charging_time` — the time-scale
  estimates behind the paper's statement that quantum-mechanical tunnelling is
  a *sub-picosecond* process, leaving "plenty of room to realise a fast SET
  logic".

The scalar functions are the *reference* implementations; the Monte-Carlo
kernel and the master-equation builder evaluate whole event tables at once
through the array-valued :func:`orthodox_rate_vec` and
:func:`cotunneling_rate_vec`, which reproduce every analytic limit of the
scalar forms branch for branch.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import BOLTZMANN, E_CHARGE, HBAR, PLANCK
from ..errors import ReproError

#: Energies closer to zero than this fraction of kT use the series expansion.
_EXPANSION_THRESHOLD = 1e-9

#: Exponents beyond this value are treated as infinite to avoid overflow.
_EXP_OVERFLOW = 500.0

_E_SQUARED = E_CHARGE**2


def orthodox_rate(delta_f: float, resistance: float, temperature: float) -> float:
    """First-order tunnel rate of the orthodox theory, in events per second.

    Parameters
    ----------
    delta_f:
        Free-energy change of the event in joule (negative = downhill).
    resistance:
        Tunnel resistance of the junction in ohm.
    temperature:
        Temperature in kelvin (``>= 0``).

    Returns
    -------
    float
        ``Gamma = (-dF / e^2 R) / (1 - exp(dF / kT))``.  At ``T = 0`` this is
        ``-dF / (e^2 R)`` for downhill events and exactly ``0`` for uphill
        events; at ``dF = 0`` (finite ``T``) it is ``kT / (e^2 R)``.
    """
    if not resistance > 0.0:
        raise ReproError(f"tunnel resistance must be positive, got {resistance!r}")
    if not temperature >= 0.0:
        raise ReproError(f"temperature must be non-negative, got {temperature!r}")

    prefactor = 1.0 / (E_CHARGE**2 * resistance)

    if temperature == 0.0:
        return -delta_f * prefactor if delta_f < 0.0 else 0.0

    thermal = BOLTZMANN * temperature
    x = delta_f / thermal
    if abs(x) < _EXPANSION_THRESHOLD:
        # (-dF)/(1 - exp(dF/kT)) -> kT * (1 - x/2 + ...) as x -> 0.
        return prefactor * thermal * (1.0 - 0.5 * x)
    if x > _EXP_OVERFLOW:
        return 0.0
    if x < -_EXP_OVERFLOW:
        return -delta_f * prefactor
    return prefactor * (-delta_f) / (1.0 - math.exp(x))


def orthodox_rate_vec(delta_f, resistance, temperature,
                      out: "np.ndarray | None" = None) -> np.ndarray:
    """Array-valued :func:`orthodox_rate` over whole event tables.

    Evaluates ``Gamma = (-dF / e^2 R) / (1 - exp(dF / kT))`` element-wise with
    the same analytic limits as the scalar reference — the ``T = 0`` step
    function, the ``|dF| << kT`` series expansion and the ``exp`` overflow
    guards.  The kernel is mask-free: the general form runs on the whole
    array, with the exponent clamped to ``[-500, 500]`` so that no element
    can overflow, underflow or divide by zero, and the limit branches then
    overwrite their elements through ``np.copyto(..., where=...)``.  Every
    element still goes through the same floating-point operations, in the
    same order, as its branch in the scalar reference.  Below the clamp
    (``dF < -500 kT``) the general form is the limit itself, because
    ``1 - exp(-500)`` rounds to exactly ``1.0``.

    Contract against the scalar reference: every branch except the general
    one is bit-identical (so ``T = 0`` tables match exactly).  The general
    branch calls NumPy's ``exp``, whose SIMD implementation may differ from
    ``math.exp`` by an ulp or so; such elements then differ from
    :func:`orthodox_rate` by a few ulp (relative error below ``1e-15``).

    Parameters
    ----------
    delta_f:
        Free-energy changes in joule (any broadcastable array).
    resistance:
        Tunnel resistances in ohm (scalar or broadcastable with ``delta_f``).
    temperature:
        Temperature in kelvin (``>= 0``): a scalar shared by all elements, or
        an array broadcasting against ``delta_f`` (one temperature per
        element, ``T = 0`` entries taking the step-function branch).
    out:
        Optional preallocated output array of the broadcast shape.

    Raises
    ------
    ReproError
        If a resistance is not positive or a temperature is negative; NaN
        fails both checks.
    """
    if not isinstance(temperature, float) and np.ndim(temperature) != 0:
        return _orthodox_rate_vec_temperatures(delta_f, resistance,
                                               temperature, out)
    df = np.asarray(delta_f, dtype=float)
    res = np.asarray(resistance, dtype=float)
    if not (res > 0.0).all():
        raise ReproError("tunnel resistances must be positive")
    if not temperature >= 0.0:
        raise ReproError(f"temperature must be non-negative, got {temperature!r}")

    prefactor = 1.0 / (_E_SQUARED * res)
    if df.shape != prefactor.shape:
        df, prefactor = np.broadcast_arrays(df, prefactor)
    if out is None:
        out = np.empty(df.shape, dtype=float)

    if temperature == 0.0:
        np.multiply(df, -prefactor, out=out)
        np.copyto(out, 0.0, where=df >= 0.0)
        return out

    thermal = BOLTZMANN * temperature
    x = df / thermal
    small = np.abs(x) < _EXPANSION_THRESHOLD
    if not small.any():
        _general_rate(df, prefactor, x, None, out)
        return out
    _general_rate(df, prefactor, x, small, out)
    out[small] = prefactor[small] * thermal * (1.0 - 0.5 * x[small])
    return out


def _general_rate(df: np.ndarray, prefactor: np.ndarray, x: np.ndarray,
                  exempt, out: np.ndarray) -> None:
    """Fill ``out`` with the general form, and zero where ``x > 500``.

    ``exempt`` (a mask, or ``None``) marks elements that another branch
    overwrites afterwards.  Their exponent is replaced by 1, so that
    ``1 - exp`` cannot vanish there.
    """
    np.maximum(x, -_EXP_OVERFLOW, out=out)
    np.minimum(out, _EXP_OVERFLOW, out=out)
    if exempt is not None:
        np.copyto(out, 1.0, where=exempt)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(prefactor * -df, out, out=out)
    np.copyto(out, 0.0, where=x > _EXP_OVERFLOW)


def _orthodox_rate_vec_temperatures(delta_f, resistance, temperature,
                                    out: "np.ndarray | None") -> np.ndarray:
    """:func:`orthodox_rate_vec` with one temperature per element.

    The same branches as the scalar-temperature path, selected per element:
    ``T = 0`` elements take the step function, the others the series
    expansion, the overflow guards or the general form.  ``T = 0`` elements
    divide by a stand-in ``kT = 1`` so that no division by zero occurs;
    the step function then overwrites them.
    """
    df = np.asarray(delta_f, dtype=float)
    res = np.asarray(resistance, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if not (res > 0.0).all():
        raise ReproError("tunnel resistances must be positive")
    if not (temperature >= 0.0).all():
        raise ReproError("temperatures must be non-negative")

    prefactor = 1.0 / (_E_SQUARED * res)
    if not df.shape == prefactor.shape == temperature.shape:
        df, prefactor, temperature = np.broadcast_arrays(df, prefactor,
                                                         temperature)
    if out is None:
        out = np.empty(df.shape, dtype=float)

    frozen = temperature == 0.0
    thermal = BOLTZMANN * temperature
    np.copyto(thermal, 1.0, where=frozen)
    x = df / thermal
    small = np.abs(x) < _EXPANSION_THRESHOLD
    small &= ~frozen
    _general_rate(df, prefactor, x, small | frozen, out)
    if small.any():
        out[small] = prefactor[small] * thermal[small] * (1.0 - 0.5 * x[small])
    if frozen.any():
        out[frozen] = 0.0
        downhill = frozen & (df < 0.0)
        out[downhill] = df[downhill] * -prefactor[downhill]
    return out


def detailed_balance_ratio(delta_f: float, temperature: float) -> float:
    """Ratio ``Gamma(dF) / Gamma(-dF)`` predicted by detailed balance.

    The orthodox rate satisfies ``Gamma(dF)/Gamma(-dF) = exp(-dF / kT)``; the
    test-suite uses this to validate :func:`orthodox_rate` property-based.
    """
    if temperature <= 0.0:
        raise ReproError("detailed balance requires a positive temperature")
    x = delta_f / (BOLTZMANN * temperature)
    if x > _EXP_OVERFLOW:
        return 0.0
    if x < -_EXP_OVERFLOW:
        return math.inf
    return math.exp(-x)


def cotunneling_rate(delta_f: float, intermediate_energy_1: float,
                     intermediate_energy_2: float, resistance_1: float,
                     resistance_2: float, temperature: float) -> float:
    """Inelastic co-tunnelling rate through two junctions in series.

    This is the standard second-order rate (Averin & Nazarov form) used by
    dedicated Monte-Carlo simulators::

        Gamma = (hbar / (2 pi e^4 R1 R2)) * (1/E1 + 1/E2)^2
                * [ dF^2 + (2 pi k T)^2 ] * (-dF) / (1 - exp(dF / kT))

    Parameters
    ----------
    delta_f:
        Total free-energy change of the two-electron process in joule.
    intermediate_energy_1, intermediate_energy_2:
        Energy costs (joule, positive) of the two virtual intermediate states
        (electron-first and hole-first ordering).  When either is not
        positive, first-order tunnelling is already allowed and the
        co-tunnelling channel is irrelevant; the function then returns 0.
    resistance_1, resistance_2:
        Tunnel resistances of the two junctions in ohm.
    temperature:
        Temperature in kelvin.

    Returns
    -------
    float
        Co-tunnelling rate in events per second.  At ``T = 0`` the rate scales
        as ``|dF|^3`` for downhill processes, reproducing the well-known cubic
        current-voltage characteristic deep in the Coulomb blockade.
    """
    if resistance_1 <= 0.0 or resistance_2 <= 0.0:
        raise ReproError("tunnel resistances must be positive")
    if temperature < 0.0:
        raise ReproError("temperature must be non-negative")
    if intermediate_energy_1 <= 0.0 or intermediate_energy_2 <= 0.0:
        return 0.0

    prefactor = HBAR / (2.0 * math.pi * E_CHARGE**4 * resistance_1 * resistance_2)
    virtual = (1.0 / intermediate_energy_1 + 1.0 / intermediate_energy_2) ** 2

    if temperature == 0.0:
        if delta_f >= 0.0:
            return 0.0
        window = delta_f**2
        occupation = -delta_f
        return prefactor * virtual * window * occupation

    thermal = BOLTZMANN * temperature
    window = delta_f**2 + (2.0 * math.pi * thermal) ** 2
    x = delta_f / thermal
    if abs(x) < _EXPANSION_THRESHOLD:
        occupation = thermal
    elif x > _EXP_OVERFLOW:
        occupation = 0.0
    elif x < -_EXP_OVERFLOW:
        occupation = -delta_f
    else:
        occupation = -delta_f / (1.0 - math.exp(x))
    return prefactor * virtual * window * occupation


def cotunneling_rate_vec(delta_f, intermediate_energy_1, intermediate_energy_2,
                         resistance_1, resistance_2,
                         temperature: float) -> np.ndarray:
    """Array-valued :func:`cotunneling_rate` over whole channel tables.

    Branch for branch the scalar reference, including the "first-order
    already allowed" guard (non-positive virtual-state energies give a zero
    rate) and every thermal limit.  As for :func:`orthodox_rate_vec`, only
    NumPy's ``exp`` in the general thermal branch can make a result differ
    from the scalar one (by a few ulp where ``|dF| >= kT``, more as
    ``dF -> 0``).
    """
    df = np.asarray(delta_f, dtype=float)
    e1 = np.asarray(intermediate_energy_1, dtype=float)
    e2 = np.asarray(intermediate_energy_2, dtype=float)
    r1 = np.asarray(resistance_1, dtype=float)
    r2 = np.asarray(resistance_2, dtype=float)
    if np.any(r1 <= 0.0) or np.any(r2 <= 0.0):
        raise ReproError("tunnel resistances must be positive")
    if temperature < 0.0:
        raise ReproError("temperature must be non-negative")

    prefactor = HBAR / (2.0 * math.pi * E_CHARGE**4 * r1 * r2)
    df, e1, e2, prefactor = np.broadcast_arrays(df, e1, e2, prefactor)
    out = np.zeros(df.shape, dtype=float)
    valid = (e1 > 0.0) & (e2 > 0.0)
    if not np.any(valid):
        return out

    with np.errstate(divide="ignore"):
        virtual = (1.0 / e1 + 1.0 / e2) ** 2

    if temperature == 0.0:
        live = valid & (df < 0.0)
        out[live] = prefactor[live] * virtual[live] * df[live]**2 * (-df[live])
        return out

    thermal = BOLTZMANN * temperature
    window = df**2 + (2.0 * math.pi * thermal) ** 2
    x = df / thermal
    occupation = np.empty(df.shape, dtype=float)
    small = np.abs(x) < _EXPANSION_THRESHOLD
    overflow = x > _EXP_OVERFLOW
    underflow = x < -_EXP_OVERFLOW
    general = ~(small | overflow | underflow)
    occupation[small] = thermal
    occupation[overflow] = 0.0
    occupation[underflow] = -df[underflow]
    occupation[general] = -df[general] / (1.0 - np.exp(x[general]))
    out[valid] = prefactor[valid] * virtual[valid] * window[valid] * occupation[valid]
    return out


def tunnel_traversal_time(barrier_height: float,
                          barrier_width: float = 1e-9,
                          effective_mass_ratio: float = 1.0) -> float:
    """Estimate of the quantum-mechanical barrier traversal time, in seconds.

    Uses the Buttiker-Landauer traversal time ``tau = d / v`` with
    ``v = sqrt(2 E_b / m*)`` (the semiclassical under-barrier velocity), which
    for typical tunnel-oxide barriers of ~1 eV and ~1 nm width gives a few
    femtoseconds — the paper's "sub-picosecond process".

    Parameters
    ----------
    barrier_height:
        Tunnel-barrier height in joule (use
        :func:`repro.units.electronvolt` for eV inputs).
    barrier_width:
        Barrier thickness in metre (default 1 nm).
    effective_mass_ratio:
        Electron effective mass in units of the free-electron mass.
    """
    if barrier_height <= 0.0 or barrier_width <= 0.0 or effective_mass_ratio <= 0.0:
        raise ReproError("barrier height, width and mass ratio must be positive")
    electron_mass = 9.1093837015e-31
    velocity = math.sqrt(2.0 * barrier_height / (effective_mass_ratio * electron_mass))
    return barrier_width / velocity


def heisenberg_tunnel_time(barrier_height: float) -> float:
    """Energy-time uncertainty estimate ``hbar / E_b`` of the tunnel time."""
    if barrier_height <= 0.0:
        raise ReproError("barrier height must be positive")
    return HBAR / barrier_height


def charging_time(resistance: float, capacitance: float) -> float:
    """RC time constant of a tunnel junction, in seconds.

    This — not the traversal time — is the practical speed limit of a
    single-electron circuit: after a tunnel event the island potential must
    settle before the next event statistics are meaningful.
    """
    if resistance <= 0.0 or capacitance <= 0.0:
        raise ReproError("resistance and capacitance must be positive")
    return resistance * capacitance


def attempt_frequency(resistance: float, capacitance: float) -> float:
    """Inverse RC time: the characteristic single-electron event frequency."""
    return 1.0 / charging_time(resistance, capacitance)


__all__ = [
    "orthodox_rate",
    "orthodox_rate_vec",
    "detailed_balance_ratio",
    "cotunneling_rate",
    "cotunneling_rate_vec",
    "tunnel_traversal_time",
    "heisenberg_tunnel_time",
    "charging_time",
    "attempt_frequency",
]
