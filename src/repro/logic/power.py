"""Power and energy models of single-electron versus CMOS logic.

"Chip area (cost) and power advantages are the real strong points of a
single-electron technology."  (paper, §2)

The energy bookkeeping is elementary but worth doing carefully:

* a single-electron gate moves ``N`` electrons (a handful) through a supply
  of ``V_dd ~ e / C_sigma`` per switching event, so the switching energy is
  ``~ N e V_dd ~ N e^2 / C_sigma`` — attojoules for aF-scale islands and far
  less for nm-scale ones;
* a CMOS gate dissipates ``C_load V_dd^2`` per switching event — femtojoules
  for typical loads;
* both technologies add a static (leakage) term.

:func:`compare_logic_power` produces the row used by experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import BOLTZMANN, E_CHARGE
from ..errors import AnalysisError


def set_switching_energy(supply_voltage: float, electrons_per_event: int = 1) -> float:
    """Energy (joule) dissipated per single-electron switching event.

    Each transferred electron dissipates at most ``e * V_dd`` (the rest of the
    electrostatic energy is returned to the supply).
    """
    if supply_voltage <= 0.0:
        raise AnalysisError("supply voltage must be positive")
    if electrons_per_event < 1:
        raise AnalysisError("at least one electron must be transferred per event")
    return electrons_per_event * E_CHARGE * supply_voltage


def cmos_switching_energy(load_capacitance: float, supply_voltage: float) -> float:
    """Energy (joule) dissipated per CMOS switching event, ``C V_dd^2``."""
    if load_capacitance <= 0.0 or supply_voltage <= 0.0:
        raise AnalysisError("load capacitance and supply voltage must be positive")
    return load_capacitance * supply_voltage**2


def static_power(leakage_current: float, supply_voltage: float) -> float:
    """Static power (watt) from a leakage current under a supply voltage."""
    if leakage_current < 0.0 or supply_voltage < 0.0:
        raise AnalysisError("leakage current and supply voltage must be non-negative")
    return leakage_current * supply_voltage


def dynamic_power(switching_energy: float, frequency: float,
                  activity_factor: float = 1.0) -> float:
    """Dynamic power (watt) at a given clock frequency and activity factor."""
    if switching_energy < 0.0 or frequency < 0.0:
        raise AnalysisError("switching energy and frequency must be non-negative")
    if not 0.0 <= activity_factor <= 1.0:
        raise AnalysisError("activity factor must lie in [0, 1]")
    return switching_energy * frequency * activity_factor


def thermodynamic_limit(temperature: float) -> float:
    """Landauer bound ``k_B T ln 2`` (joule) — the floor both technologies share."""
    if temperature <= 0.0:
        raise AnalysisError("temperature must be positive")
    return BOLTZMANN * temperature * 0.6931471805599453


@dataclass(frozen=True)
class LogicPowerComparison:
    """Energy/power comparison of one SET gate against one CMOS gate."""

    set_switching_energy: float
    cmos_switching_energy: float
    set_dynamic_power: float
    cmos_dynamic_power: float
    set_static_power: float
    cmos_static_power: float
    frequency: float

    @property
    def energy_advantage(self) -> float:
        """CMOS switching energy divided by SET switching energy."""
        if self.set_switching_energy <= 0.0:
            return float("inf")
        return self.cmos_switching_energy / self.set_switching_energy

    @property
    def set_total_power(self) -> float:
        """Total SET gate power (watt)."""
        return self.set_dynamic_power + self.set_static_power

    @property
    def cmos_total_power(self) -> float:
        """Total CMOS gate power (watt)."""
        return self.cmos_dynamic_power + self.cmos_static_power

    @property
    def power_advantage(self) -> float:
        """CMOS total power divided by SET total power."""
        if self.set_total_power <= 0.0:
            return float("inf")
        return self.cmos_total_power / self.set_total_power


def compare_logic_power(set_supply_voltage: float,
                        cmos_supply_voltage: float = 1.0,
                        cmos_load_capacitance: float = 1e-15,
                        frequency: float = 1e9,
                        activity_factor: float = 0.1,
                        electrons_per_event: int = 2,
                        set_leakage_current: float = 1e-12,
                        cmos_leakage_current: float = 1e-9
                        ) -> LogicPowerComparison:
    """Build the SET-versus-CMOS power-comparison row of experiment E8.

    Default CMOS numbers describe a ~2000s-era gate (1 fF load, 1 V supply,
    1 nA leakage); the SET side is parameterised by its supply voltage
    (typically ``e / C_sigma``, i.e. tens of millivolts) and leakage.
    """
    set_energy = set_switching_energy(set_supply_voltage, electrons_per_event)
    cmos_energy = cmos_switching_energy(cmos_load_capacitance, cmos_supply_voltage)
    return LogicPowerComparison(
        set_switching_energy=set_energy,
        cmos_switching_energy=cmos_energy,
        set_dynamic_power=dynamic_power(set_energy, frequency, activity_factor),
        cmos_dynamic_power=dynamic_power(cmos_energy, frequency, activity_factor),
        set_static_power=static_power(set_leakage_current, set_supply_voltage),
        cmos_static_power=static_power(cmos_leakage_current, cmos_supply_voltage),
        frequency=frequency,
    )


__all__ = [
    "LogicPowerComparison",
    "cmos_switching_energy",
    "compare_logic_power",
    "dynamic_power",
    "set_switching_energy",
    "static_power",
    "thermodynamic_limit",
]
