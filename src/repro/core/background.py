"""Random background charges and charge noise.

The paper's central obstacle for single-electron *logic* is the random
background charge: stray charges trapped near an island shift its effective
offset charge ``q0`` by an unpredictable, slowly drifting amount, which moves
the phase of the periodic Id-Vg characteristic and thereby flips logic states.

This module provides

* :class:`BackgroundChargeDistribution` — draws random static offset-charge
  configurations for Monte-Carlo robustness studies (experiment E2),
* :class:`RandomTelegraphProcess` — a two-state Markov (random telegraph
  signal, RTS) process describing a single bistable trap; it is both the
  noise that drifts SET characteristics "over a period of a few minutes to
  hours" and the entropy source of the single-electron random-number
  generator (experiment E6),
* :class:`TrapEnsemble` — a collection of RTS traps with log-distributed time
  constants, which produces the familiar 1/f-like charge noise spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..errors import ReproError


def wrap_offset_charge(charge: float) -> float:
    """Wrap an offset charge into the physically distinct range ``(-e/2, e/2]``.

    Offset charges that differ by a whole electron are equivalent (the island
    simply traps one more electron in its ground state), so only the
    fractional part matters for device characteristics.
    """
    wrapped = (charge + 0.5 * E_CHARGE) % E_CHARGE - 0.5 * E_CHARGE
    if wrapped <= -0.5 * E_CHARGE:
        wrapped += E_CHARGE
    return wrapped


class BackgroundChargeDistribution:
    """Random static background-charge configurations for a set of islands.

    Parameters
    ----------
    islands:
        Names of the islands to perturb.
    amplitude:
        Maximum magnitude of the random offset charge, in units of ``e``.
        The default of 0.5 spans the full physically distinct range.
    distribution:
        ``"uniform"`` (default) draws uniformly from ``[-amplitude, amplitude]``
        (in units of ``e``); ``"gaussian"`` draws from a normal distribution
        with standard deviation ``amplitude`` and wraps the result.
    seed:
        Seed of the internal random generator, for reproducible studies.
    """

    def __init__(self, islands: Sequence[str], amplitude: float = 0.5,
                 distribution: str = "uniform", seed: Optional[int] = None) -> None:
        if not islands:
            raise ReproError("at least one island name is required")
        if amplitude < 0.0:
            raise ReproError(f"amplitude must be non-negative, got {amplitude!r}")
        if distribution not in ("uniform", "gaussian"):
            raise ReproError(
                f"distribution must be 'uniform' or 'gaussian', got {distribution!r}"
            )
        self.islands = list(islands)
        self.amplitude = float(amplitude)
        self.distribution = distribution
        self._rng = np.random.default_rng(seed)

    def sample(self) -> Dict[str, float]:
        """One random offset-charge configuration, island name -> coulomb."""
        if self.distribution == "uniform":
            fractions = self._rng.uniform(-self.amplitude, self.amplitude,
                                          size=len(self.islands))
        else:
            fractions = self._rng.normal(0.0, self.amplitude, size=len(self.islands))
        charges = [wrap_offset_charge(fraction * E_CHARGE) for fraction in fractions]
        return dict(zip(self.islands, charges))

    def samples(self, count: int) -> List[Dict[str, float]]:
        """A list of ``count`` independent configurations."""
        if count <= 0:
            raise ReproError(f"count must be positive, got {count!r}")
        return [self.sample() for _ in range(count)]

    def apply(self, circuit, configuration: Dict[str, float]) -> None:
        """Write a configuration into a circuit's island offset charges."""
        for island, charge in configuration.items():
            circuit.set_offset_charge(island, charge)


@dataclass
class RandomTelegraphProcess:
    """A two-state Markov process (random telegraph signal).

    The trap is *empty* (state 0) or *occupied* (state 1).  Transitions occur
    with exponentially distributed waiting times: mean ``capture_time`` for
    0 -> 1 and ``emission_time`` for 1 -> 0.  When occupied the trap shifts
    the coupled island's offset charge by ``amplitude`` coulomb.

    The process can be sampled on a regular time grid
    (:meth:`sample_timeseries`) or advanced event-by-event inside the
    Monte-Carlo simulator (:meth:`next_transition`).
    """

    capture_time: float
    emission_time: float
    amplitude: float = 0.1 * E_CHARGE
    seed: Optional[int] = None
    occupied: bool = False

    def __post_init__(self) -> None:
        if self.capture_time <= 0.0 or self.emission_time <= 0.0:
            raise ReproError("capture and emission times must be positive")
        self._rng = np.random.default_rng(self.seed)

    @property
    def occupancy_probability(self) -> float:
        """Stationary probability that the trap is occupied."""
        rate_capture = 1.0 / self.capture_time
        rate_emission = 1.0 / self.emission_time
        return rate_capture / (rate_capture + rate_emission)

    @property
    def mean_switching_rate(self) -> float:
        """Average number of transitions per second in the stationary state.

        One full capture + emission cycle takes ``capture_time + emission_time``
        on average and contains two transitions.
        """
        return 2.0 / (self.capture_time + self.emission_time)

    @property
    def rms_charge(self) -> float:
        """Root-mean-square charge fluctuation of the trap, in coulomb."""
        p = self.occupancy_probability
        return abs(self.amplitude) * float(np.sqrt(p * (1.0 - p)))

    def current_charge(self) -> float:
        """Offset-charge contribution of the trap in its current state."""
        return self.amplitude if self.occupied else 0.0

    def reset(self, occupied: bool = False, seed: Optional[int] = None) -> None:
        """Reset the trap state (and optionally reseed the generator)."""
        self.occupied = occupied
        if seed is not None:
            self.seed = seed
            self._rng = np.random.default_rng(seed)

    def next_transition(self) -> float:
        """Draw the waiting time (s) until the next transition and flip the state."""
        mean = self.emission_time if self.occupied else self.capture_time
        waiting = float(self._rng.exponential(mean))
        self.occupied = not self.occupied
        return waiting

    def advance(self, duration: float) -> bool:
        """Evolve the trap for ``duration`` seconds and return its final state.

        The trap may flip any number of times during the interval; the memoryless
        property of the exponential waiting times makes the piecewise evolution
        exact.
        """
        if duration < 0.0:
            raise ReproError("duration must be non-negative")
        remaining = duration
        while True:
            mean = self.emission_time if self.occupied else self.capture_time
            waiting = float(self._rng.exponential(mean))
            if waiting > remaining:
                return self.occupied
            remaining -= waiting
            self.occupied = not self.occupied

    def sample_occupancy(self, count: int, timestep: float) -> np.ndarray:
        """Occupancy at ``count`` grid points, generated in one batched shot.

        The replica-free equivalent of calling :meth:`advance` per sample:
        all transition times are drawn at once (cumulative sums of
        exponential waits with alternating means), the grid occupancy follows
        from the flip-count parity at each sample time, and the trap is left
        in its exact state at the end of the covered interval.  Element ``i``
        is the state at time ``i * timestep``, with element 0 the current
        state — the same grid an ``observe, advance(timestep)`` loop
        produces, at array speed.

        Returns a boolean array of length ``count`` (``True`` = occupied).
        """
        if count <= 0:
            raise ReproError("count must be positive")
        if timestep <= 0.0:
            raise ReproError("timestep must be positive")
        initial = self.occupied
        horizon = count * timestep
        # Means alternate starting from the current state; draw blocks of
        # waits until the accumulated flip time passes the horizon.
        first_mean = self.emission_time if initial else self.capture_time
        other_mean = self.capture_time if initial else self.emission_time
        expected = horizon * self.mean_switching_rate
        block = max(64, int(expected * 1.5) + 16)
        flip_times: List[np.ndarray] = []
        offset = 0.0
        drawn = 0
        while True:
            means = np.where(np.arange(drawn, drawn + block) % 2 == 0,
                             first_mean, other_mean)
            waits = self._rng.standard_exponential(block) * means
            times = offset + np.cumsum(waits)
            flip_times.append(times)
            offset = float(times[-1])
            drawn += block
            if offset > horizon:
                break
        flips = np.concatenate(flip_times)
        sample_times = np.arange(count) * timestep
        # advance() flips when the waiting time does not exceed the interval,
        # so a flip landing exactly on a grid point counts (side="right").
        counts = np.searchsorted(flips, sample_times, side="right")
        occupancy = np.logical_xor(initial, counts % 2 == 1)
        total_flips = int(np.searchsorted(flips, horizon, side="right"))
        self.occupied = bool(initial ^ (total_flips % 2 == 1))
        return occupancy

    def sample_timeseries(self, duration: float, timestep: float) -> np.ndarray:
        """Charge contribution sampled on a regular grid of spacing ``timestep``.

        Returns an array of length ``ceil(duration / timestep)`` containing
        the trap's offset-charge contribution (0 or ``amplitude``) at each
        grid point.
        """
        if duration <= 0.0 or timestep <= 0.0:
            raise ReproError("duration and timestep must be positive")
        steps = int(np.ceil(duration / timestep))
        occupancy = self.sample_occupancy(steps, timestep)
        return np.where(occupancy, self.amplitude, 0.0)


class TrapEnsemble:
    """A collection of independent RTS traps coupled to one island.

    With capture/emission times drawn log-uniformly over several decades the
    superposition of many RTS processes produces the 1/f-like low-frequency
    charge noise observed in real SET devices — the reason the paper reports
    characteristics drifting "over a period of a few minutes to hours".
    """

    def __init__(self, trap_count: int, amplitude: float = 0.01 * E_CHARGE,
                 min_time: float = 1e-6, max_time: float = 1e2,
                 seed: Optional[int] = None) -> None:
        if trap_count <= 0:
            raise ReproError(f"trap_count must be positive, got {trap_count!r}")
        if min_time <= 0.0 or max_time <= min_time:
            raise ReproError("need 0 < min_time < max_time")
        rng = np.random.default_rng(seed)
        self.traps: List[RandomTelegraphProcess] = []
        for index in range(trap_count):
            capture = float(np.exp(rng.uniform(np.log(min_time), np.log(max_time))))
            emission = float(np.exp(rng.uniform(np.log(min_time), np.log(max_time))))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            trap = RandomTelegraphProcess(capture, emission, sign * amplitude,
                                          seed=int(rng.integers(0, 2**31 - 1)))
            trap.occupied = bool(rng.uniform() < trap.occupancy_probability)
            self.traps.append(trap)

    def __len__(self) -> int:
        return len(self.traps)

    def current_charge(self) -> float:
        """Total offset-charge contribution of the ensemble, in coulomb."""
        return sum(trap.current_charge() for trap in self.traps)

    def rms_charge(self) -> float:
        """RMS of the total charge fluctuation (traps are independent)."""
        return float(np.sqrt(sum(trap.rms_charge ** 2 for trap in self.traps)))

    def sample_timeseries(self, duration: float, timestep: float) -> np.ndarray:
        """Total charge contribution sampled on a regular time grid."""
        total: Optional[np.ndarray] = None
        for trap in self.traps:
            series = trap.sample_timeseries(duration, timestep)
            total = series if total is None else total + series
        assert total is not None
        return total

    def power_spectral_density(self, duration: float, timestep: float
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """One-sided PSD of the ensemble charge noise, ``(frequencies, psd)``.

        The PSD is estimated from a single sampled realisation via the
        periodogram; for a large ensemble it approaches the superposition of
        Lorentzians, i.e. an approximately 1/f spectrum over the covered
        decades.
        """
        series = self.sample_timeseries(duration, timestep)
        series = series - series.mean()
        spectrum = np.fft.rfft(series)
        frequencies = np.fft.rfftfreq(series.size, d=timestep)
        psd = (np.abs(spectrum) ** 2) * 2.0 * timestep / series.size
        return frequencies[1:], psd[1:]


__all__ = [
    "BackgroundChargeDistribution",
    "RandomTelegraphProcess",
    "TrapEnsemble",
    "wrap_offset_charge",
]
