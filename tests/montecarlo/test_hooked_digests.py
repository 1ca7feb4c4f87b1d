"""Pinned digests of seeded trap, event-record and occupation runs.

Charge traps, per-event records (``run(..., record_events=True)``) and
occupation statistics (``run(..., occupation=...)``) are the Monte-Carlo
outputs that depend on every single event: the flip of a trap moves the
island's offset charge, a record holds each event's time, label and
configuration, and a dwell-time histogram adds every waiting time into a
dictionary in event order.  These digests pin those outputs bit for bit:

* a trap ``run`` under an event budget and under a duration budget, a trap
  ``stationary_current``, and warm and cold trap ``sweep_source`` on the
  reference SET with one 0.2 e trap and on the double dot of
  ``tests/conftest.py`` with two traps;
* the event records (time, label, electrons) and trap-flip counts of
  recorded runs, with and without traps;
* ``OccupationStatistics.dwell_times`` items in insertion order: a plain
  run, a run into a pre-filled object, a duration-bounded run, a trap run
  and a T = 0 blockaded run (whose stalls add 0.0 dwell entries).

Each is checked on the active backend of the advance loop and on the
interpreted loop.

Digest: SHA-256 of the ``repr`` of each case's tuple of plain Python values
(floats print their exact shortest round-trip form).
"""

import hashlib

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator, OccupationStatistics

from ..conftest import build_double_dot_circuit, interpreted_backend

LOOPS = ["active", "interpreted"]

DIGESTS = {
    "trap_run_events":
        "ffec950baedd941d6743afe2edc807d81f5399a9bca565a08488e24bed85f0b1",
    "trap_run_duration":
        "d1aea990964bf690b335cf951be58d18ee08fd86257efcd8159ce0b17844eb94",
    "trap_stationary":
        "a177b3ddb2ffafdf13b184b9efa7211ed918e143676a0e7590736b52614bbeb2",
    "trap_sweep_warm":
        "e965f5d27b2c5c47821cd4ac5f506c0a4778dfe7ec115e3ecfe2943e070554be",
    "trap_sweep_cold":
        "a717422d3738d2ea73c588e319f04c3c14cf99c75f46529d5dc5d17fc62b5839",
    "double_dot_traps_warm":
        "5f605c71a29731698e1b34779951bcc532972f3c9298c36e6e3c341369882198",
    "double_dot_traps_cold":
        "019f7bae708b20c8db3746c91559b5c40c170e6d0e72ce5dfcacb312e36331ba",
    "records_plain":
        "4803112239c8fc61d69795c14afed5ad5035b2f08c61aaf50ae3c84163ebd485",
    "records_traps":
        "09f970fe7d40b1e80ab66c2f0bd1f4e2dfc030d397c3c587468230ada46cf328",
    "dwell_plain":
        "3a89efc5f85c6526bf92fc0f6c1dddb680078b94d832ea7b5bb77adc49dea372",
    "dwell_prefilled":
        "9cd3e2a446a2be6083779cb18f2fdaafe3415670c655307d3afd9d4c952d604e",
    "dwell_duration":
        "f859dd888d9bc810b4b9acc25027160c6076fa7d05688eedb9f3c6464e6a564b",
    "dwell_traps":
        "d1f069826d52c5c71471928b80a17d992408a7c216f8206f90f6317e07f3392d",
    "dwell_blockade":
        "d7d4a829303c3d822d13eade23f057388e1062a17161d8e3e4394df7ecbe665e",
}


def digest(*values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def trap_set(seed=3, temperature=1.0, gate_voltage=0.02, drain_voltage=0.05):
    """The reference SET with one 0.2 e trap flipping at tunnel-rate times."""
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=drain_voltage,
                                       gate_voltage=gate_voltage)
    circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE,
                            capture_time=4e-11, emission_time=7e-11)
    return MonteCarloSimulator(circuit, temperature=temperature, seed=seed)


def plain_set(seed=3, temperature=1.0, drain_voltage=0.05, gate_voltage=0.04):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=drain_voltage,
                                       gate_voltage=gate_voltage)
    return MonteCarloSimulator(circuit, temperature=temperature, seed=seed)


def trap_double_dot(seed=11):
    """The double dot at 250 mV and 20 K with a trap on each island (the
    second one twice as strongly coupled)."""
    circuit = build_double_dot_circuit(bias_voltage=0.25)
    circuit.add_charge_trap("TA", "dot_a", 0.15 * E_CHARGE,
                            capture_time=3e-11, emission_time=4e-11)
    circuit.add_charge_trap("TB", "dot_b", 0.3 * E_CHARGE,
                            capture_time=6e-11, emission_time=5e-11)
    return MonteCarloSimulator(circuit, temperature=20.0, seed=seed)


def build(loop, make):
    if loop == "interpreted":
        with interpreted_backend():
            return make()
    return make()


def result_values(result, state):
    return (result.event_count, result.duration,
            sorted(result.electron_transfers.items()), result.final_electrons,
            result.trap_flips, sorted(state.trap_occupancy.items()),
            state.event_count, state.time)


def records_values(result):
    return [(record.time, record.label, record.electrons)
            for record in result.records]


def trap_run_events(loop):
    simulator = build(loop, trap_set)
    state = simulator.new_state()
    result = simulator.run(max_events=3_000, state=state)
    return digest(*result_values(result, state))


def trap_run_duration(loop):
    simulator = build(loop, trap_set)
    state = simulator.new_state()
    first = simulator.run(duration=2e-9, state=state)
    second = simulator.run(duration=1.5e-9, state=state)
    return digest(result_values(first, state), result_values(second, state))


def trap_stationary(loop):
    estimate = build(loop, trap_set).stationary_current(
        "J_drain", max_events=2_000, warmup_events=200)
    return digest(estimate.mean, estimate.stderr, estimate.blocks,
                  estimate.duration, estimate.events)


def sweep_digest(simulator, source, values, junction, warm):
    _, currents, stderrs = simulator.sweep_source(
        source, values, junction, max_events=400, warmup_events=40,
        warm_start=warm)
    return digest(currents.tolist(), stderrs.tolist())


def trap_sweep(loop, warm):
    return sweep_digest(build(loop, trap_set), "VG",
                        np.linspace(0.0, 0.12, 9), "J_drain", warm)


def double_dot_traps(loop, warm):
    return sweep_digest(build(loop, trap_double_dot), "VGA",
                        np.linspace(0.0, 0.4, 7), "J_left", warm)


def records_plain(loop):
    simulator = build(loop, lambda: MonteCarloSimulator(
        build_double_dot_circuit(bias_voltage=0.25), temperature=20.0,
        seed=17))
    state = simulator.new_state()
    result = simulator.run(max_events=1_500, state=state, record_events=True)
    return digest(records_values(result), result_values(result, state))


def records_traps(loop):
    simulator = build(loop, trap_set)
    state = simulator.new_state()
    first = simulator.run(max_events=1_200, state=state, record_events=True)
    second = simulator.run(duration=1e-9, state=state, record_events=True)
    return digest(records_values(first), result_values(first, state),
                  records_values(second), result_values(second, state))


def dwell_items(occupation):
    return list(occupation.dwell_times.items())


def dwell_plain(loop):
    occupation = OccupationStatistics()
    build(loop, lambda: MonteCarloSimulator(
        build_double_dot_circuit(bias_voltage=0.25), temperature=20.0,
        seed=23)).run(max_events=2_000, occupation=occupation)
    return digest(dwell_items(occupation))


def dwell_prefilled(loop):
    occupation = OccupationStatistics()
    occupation.record((0,), 1.2345678901234567e-10)
    occupation.record((7,), 3e-12)
    simulator = build(loop, plain_set)
    state = simulator.new_state()
    simulator.run(max_events=1_000, state=state, occupation=occupation)
    simulator.run(max_events=700, state=state, occupation=occupation)
    return digest(dwell_items(occupation))


def dwell_duration(loop):
    occupation = OccupationStatistics()
    result = build(loop, plain_set).run(duration=3e-9, occupation=occupation)
    return digest(dwell_items(occupation), result.event_count,
                  result.duration)


def dwell_traps(loop):
    occupation = OccupationStatistics()
    result = build(loop, trap_set).run(max_events=2_500, occupation=occupation,
                                       record_events=True)
    return digest(dwell_items(occupation), records_values(result),
                  result.trap_flips)


def dwell_blockade(loop):
    # T = 0 in blockade after one relaxation: the stalled steps add 0.0
    # dwell entries, and a time budget burns the rest of the window.
    simulator = build(loop, lambda: plain_set(
        temperature=0.0, drain_voltage=0.002, gate_voltage=0.0))
    occupation = OccupationStatistics()
    state = simulator.new_state(electrons=[1])
    first = simulator.run(max_events=50, state=state, occupation=occupation)
    second = simulator.run(duration=1e-9, state=state, occupation=occupation)
    return digest(dwell_items(occupation), result_values(first, state),
                  result_values(second, state))


CASES = {
    "trap_run_events": trap_run_events,
    "trap_run_duration": trap_run_duration,
    "trap_stationary": trap_stationary,
    "trap_sweep_warm": lambda loop: trap_sweep(loop, True),
    "trap_sweep_cold": lambda loop: trap_sweep(loop, False),
    "double_dot_traps_warm": lambda loop: double_dot_traps(loop, True),
    "double_dot_traps_cold": lambda loop: double_dot_traps(loop, False),
    "records_plain": records_plain,
    "records_traps": records_traps,
    "dwell_plain": dwell_plain,
    "dwell_prefilled": dwell_prefilled,
    "dwell_duration": dwell_duration,
    "dwell_traps": dwell_traps,
    "dwell_blockade": dwell_blockade,
}


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_hooked_digest(case, loop):
    assert CASES[case](loop) == DIGESTS[case]
