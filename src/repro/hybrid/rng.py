"""The single-electron random-number generator (Uchida-style, experiment E6).

The entropy source is a single charge trap next to the SET island: its random
capture/emission of one electron (a random telegraph signal) shifts the SET's
effective offset charge by a sizeable fraction of ``e``, which — thanks to the
SET's extreme charge sensitivity — swings the output node of a SET-MOS stack
by a large fraction of the supply.  Sampling that output with a comparator
and (optionally) von-Neumann debiasing yields random bits.

The simulation is quasi-static: the trap flips on microsecond timescales
while the circuit settles in nanoseconds, so each sample is an independent DC
solve of the compact SET-MOS circuit with the instantaneous trap charge.
Because only two operating points exist (trap empty / occupied), a whole bit
stream is produced in one batched shot: the telegraph process is sampled with
a single vectorized flip-time draw
(:meth:`~repro.core.background.RandomTelegraphProcess.sample_occupancy`), the
two output levels are solved once each, and the trace, thresholding and
debiasing are pure array operations — no per-sample Python loop remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..compact.mosfet import MOSFETModel
from ..compact.set_model import TunableSETModel
from ..compact.solver import DCSolver
from ..constants import E_CHARGE
from ..core.background import RandomTelegraphProcess
from ..errors import SimulationError
from .cmos_baselines import CMOSRNGBaseline, RNGComparison, SETMOSRNGFootprint, compare_rng
from .setmos import OUTPUT_NODE, SETMOSStack


@dataclass
class RNGSample:
    """Diagnostics of one RNG run."""

    times: np.ndarray
    output_voltages: np.ndarray
    trap_occupancy: np.ndarray
    raw_bits: np.ndarray
    bits: np.ndarray

    @property
    def output_rms(self) -> float:
        """RMS of the output-voltage fluctuation (the paper quotes 0.12 V)."""
        return float(np.std(self.output_voltages))

    @property
    def output_swing(self) -> float:
        """Peak-to-peak output swing in volt."""
        return float(np.ptp(self.output_voltages))


@dataclass
class SingleElectronRNG:
    """A SET-MOS random-number generator driven by trap telegraph noise.

    Parameters
    ----------
    stack:
        The SET-MOS stack; its SET model must be a
        :class:`~repro.compact.set_model.TunableSETModel` so the trap charge
        can be applied per sample (the default stack is built that way).
    trap_coupling:
        Offset-charge shift (coulomb) induced on the SET island when the trap
        is occupied.  Uchida-class devices show couplings of a substantial
        fraction of ``e``.
    capture_time, emission_time:
        Mean trap capture/emission times in seconds.  Keeping them equal gives
        an unbiased raw stream.
    gate_bias:
        Static SET gate voltage; half a Coulomb period away from a current
        peak maximises the output swing per trap flip.
    samples_per_flip:
        The output is sampled every ``samples_per_flip`` mean switching times,
        large values decorrelate consecutive samples.
    seed:
        Seed of the trap process (and sampler), for reproducibility.
    """

    stack: Optional[SETMOSStack] = None
    trap_coupling: float = 0.45 * E_CHARGE
    capture_time: float = 1e-6
    emission_time: float = 1e-6
    gate_bias: Optional[float] = None
    samples_per_flip: float = 3.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stack is None:
            # Uchida-class room-temperature device: a sub-attofarad island
            # (charging energy of a few hundred meV) and high-resistance
            # junctions, loaded by a MOSFET biased as a ~nA current source.
            set_model = TunableSETModel(drain_capacitance=0.1e-18,
                                        source_capacitance=0.1e-18,
                                        gate_capacitance=0.1e-18,
                                        drain_resistance=5e7,
                                        source_resistance=5e7,
                                        temperature=300.0)
            mosfet = MOSFETModel(transconductance=2e-5, threshold_voltage=0.4)
            bias = mosfet.gate_voltage_for_current(2e-9, drain_source_voltage=0.5)
            self.stack = SETMOSStack(set_model=set_model, mosfet_model=mosfet,
                                     supply_voltage=1.0, bias_voltage=bias)
        if not isinstance(self.stack.set_model, TunableSETModel):
            raise SimulationError(
                "the RNG needs a TunableSETModel so the trap charge can be applied; "
                "build the stack with TunableSETModel(...) as its set_model"
            )
        if self.trap_coupling == 0.0:
            raise SimulationError("a zero trap coupling produces no noise at all")
        if self.samples_per_flip <= 0.0:
            raise SimulationError("samples_per_flip must be positive")
        if self.gate_bias is None:
            # Park the gate near the blockade maximum so the trap flip (almost
            # half an electron) carries the device from deep blockade to the
            # conducting flank — the largest possible output excursion.
            self.gate_bias = 0.05 * self.stack.set_model.gate_period

    # ------------------------------------------------------------------- runs

    def run(self, sample_count: int = 2000,
            debias: bool = True) -> RNGSample:
        """Generate a sampled output trace and the derived bit stream.

        Parameters
        ----------
        sample_count:
            Number of output samples (raw bits before debiasing).
        debias:
            Apply von-Neumann debiasing (pairs ``01 -> 0``, ``10 -> 1``,
            others discarded) to remove residual bias and correlation.
        """
        if sample_count < 16:
            raise SimulationError("need at least 16 samples")
        trap = RandomTelegraphProcess(self.capture_time, self.emission_time,
                                      amplitude=self.trap_coupling, seed=self.seed)
        sample_interval = self.samples_per_flip * 0.5 \
            * (self.capture_time + self.emission_time)
        times = np.arange(sample_count) * sample_interval
        # The whole telegraph trace is generated in one batched shot (all
        # flip times at once, occupancy from flip-count parity) instead of an
        # advance-per-sample Python loop.
        occupancy = trap.sample_occupancy(sample_count, sample_interval)

        # Only two distinct operating points exist (trap empty / occupied):
        # solve each once, warm-starting the second from the first, and map
        # the occupancy trace through the two levels in one vectorized shot.
        circuit = self.stack.build_circuit(input_voltage=self.gate_bias,
                                           name="set_rng")
        solver = DCSolver(circuit)
        set_model: TunableSETModel = self.stack.set_model  # type: ignore[assignment]
        previous = None
        levels = {}
        for charge in (0.0, self.trap_coupling):
            set_model.background_charge = charge
            solution = solver.solve(initial_guess=previous)
            previous = solution.voltages
            levels[charge] = solution.voltage(OUTPUT_NODE)
        outputs = np.where(occupancy, levels[self.trap_coupling], levels[0.0])

        threshold = 0.5 * float(outputs.min() + outputs.max())
        raw_bits = (outputs > threshold).astype(np.int64)
        bits = von_neumann_debias(raw_bits) if debias else raw_bits
        return RNGSample(times=times, output_voltages=outputs,
                         trap_occupancy=occupancy, raw_bits=raw_bits, bits=bits)

    def generate_bits(self, bit_count: int, debias: bool = True,
                      oversampling: float = 5.0) -> np.ndarray:
        """Generate at least ``bit_count`` random bits.

        Von-Neumann debiasing discards roughly three quarters of the raw
        samples, so the raw run is oversized by ``oversampling``; the run is
        repeated (with a shifted seed) if the yield still falls short.
        """
        if bit_count <= 0:
            raise SimulationError("bit_count must be positive")
        collected: List[np.ndarray] = []
        total = 0
        attempts = 0
        seed = self.seed
        while total < bit_count and attempts < 10:
            sample = self.run(sample_count=max(64, int(bit_count * oversampling)),
                              debias=debias)
            collected.append(sample.bits)
            total += sample.bits.size
            attempts += 1
            if self.seed is not None:
                self.seed = self.seed + 1
        self.seed = seed
        bits = np.concatenate(collected)
        if bits.size < bit_count:
            raise SimulationError(
                f"could not generate {bit_count} bits (got {bits.size}); "
                "increase oversampling"
            )
        return bits[:bit_count]

    # ------------------------------------------------------------ comparisons

    def power_estimate(self) -> float:
        """Static power of the RNG cell (supply voltage times stack current)."""
        return self.stack.power_dissipation(input_voltage=self.gate_bias)

    def output_noise_rms(self, sample_count: int = 512) -> float:
        """RMS telegraph noise at the output node, in volt."""
        return self.run(sample_count=sample_count, debias=False).output_rms

    def compare_with_cmos(self, cmos: CMOSRNGBaseline = CMOSRNGBaseline(),
                          footprint: SETMOSRNGFootprint = SETMOSRNGFootprint(),
                          sample_count: int = 512) -> RNGComparison:
        """Build the paper's power / area / noise comparison row."""
        return compare_rng(set_power=self.power_estimate(),
                           set_noise_rms=self.output_noise_rms(sample_count),
                           set_footprint=footprint, cmos=cmos)


def von_neumann_debias(bits: Sequence[int]) -> np.ndarray:
    """Von-Neumann extractor: ``01 -> 0``, ``10 -> 1``, ``00``/``11`` discarded."""
    array = np.asarray(bits, dtype=np.int64)
    if array.size < 2:
        return np.empty(0, dtype=np.int64)
    pairs = array[: array.size - (array.size % 2)].reshape(-1, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return pairs[keep, 0].copy()


__all__ = ["SingleElectronRNG", "RNGSample", "von_neumann_debias"]
