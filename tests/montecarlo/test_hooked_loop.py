"""Charge traps and per-event hooks on the advance loop, bit for bit the step loop.

A trap's occupation is one more configuration column and its capture and
emission two more events, and event records, dwell times and trap-flip
counts come from the loop's event log.  Held to the step-loop oracle
(``reference_kernel.StepLoop``) on random trap circuits with every hook on
— event count, duration, transfers, final electrons and trap occupancy,
trap flips, records and the dwell dict — and on two fixed cases: a log much
smaller than the run (the loop re-enters on a full log many times) and a
memo cap of a few entries (the memo clears mid-run).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.montecarlo import MonteCarloSimulator, OccupationStatistics
from repro.montecarlo.jit import STATUS_LOG_FULL

from ..conftest import build_double_dot_circuit, interpreted_backend
from .reference_kernel import StepLoop

LOOPS = ["active", "interpreted"]


def build(loop, make):
    if loop == "interpreted":
        with interpreted_backend():
            return make()
    return make()


def outcome(result, state, occupation):
    """Everything a hooked run reports, as plain comparable values."""
    return (result.event_count, result.duration,
            sorted(result.electron_transfers.items()), result.final_electrons,
            result.trap_flips, result.records,
            sorted(state.trap_occupancy.items()), state.time,
            list(occupation.dwell_times.items()))


def hooked(run, state, **budget):
    occupation = OccupationStatistics()
    result = run(state=state, record_events=True, occupation=occupation,
                 **budget)
    return outcome(result, state, occupation)


def both(loop, make, **budget):
    """The run on the advance loop and on the step loop, same seed."""
    simulator = build(loop, make)
    oracle = StepLoop(make().kernel)
    return (hooked(simulator.run, simulator.new_state(), **budget),
            hooked(oracle.run, oracle.new_state(), **budget))


def trap_set(traps=((0.2, 4e-11, 7e-11),), temperature=1.0, drain=0.05,
             gate=0.02, seed=3):
    """The reference SET with ``(coupling / e, capture, emission)`` traps."""
    def make():
        device = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
        circuit = device.build_circuit(drain_voltage=drain,
                                       gate_voltage=gate)
        for index, (coupling, capture, emission) in enumerate(traps):
            circuit.add_charge_trap(f"T{index}", "dot", coupling * E_CHARGE,
                                    capture_time=capture,
                                    emission_time=emission)
        return MonteCarloSimulator(circuit, temperature=temperature,
                                   seed=seed)
    return make


trap_spec = st.tuples(st.floats(0.05, 0.5), st.floats(1e-11, 1e-9),
                      st.floats(1e-11, 1e-9))


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=40, deadline=None)
@given(double_dot=st.booleans(),
       traps=st.lists(trap_spec, min_size=1, max_size=3),
       islands=st.lists(st.booleans(), min_size=3, max_size=3),
       temperature=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
       bias=st.floats(-0.1, 0.1), seed=st.integers(0, 2**31),
       budget=st.one_of(
           st.builds(dict, max_events=st.integers(1, 600)),
           st.builds(dict, duration=st.floats(1e-11, 3e-9))))
def test_random_trap_circuits_replay_the_step_loop(loop, double_dot, traps,
                                                   islands, temperature,
                                                   bias, seed, budget):
    def make():
        if double_dot:
            circuit = build_double_dot_circuit(bias_voltage=bias)
            names = ["dot_b" if flag else "dot_a" for flag in islands]
        else:
            device = SETTransistor(junction_capacitance=1e-18,
                                   gate_capacitance=2e-18,
                                   junction_resistance=1e6)
            circuit = device.build_circuit(drain_voltage=bias,
                                           gate_voltage=0.0)
            names = ["dot"] * len(islands)
        for index, (coupling, capture, emission) in enumerate(traps):
            circuit.add_charge_trap(f"T{index}", names[index],
                                    coupling * E_CHARGE,
                                    capture_time=capture,
                                    emission_time=emission)
        return MonteCarloSimulator(circuit, temperature=temperature,
                                   seed=seed)

    advanced, stepped = both(loop, make, **budget)
    assert advanced == stepped


@pytest.mark.parametrize("loop", LOOPS)
def test_a_small_log_fills_many_times(loop):
    make = trap_set(traps=((0.2, 4e-11, 7e-11), (0.35, 9e-11, 5e-11)))
    simulator = build(loop, make)
    kernel = simulator.kernel
    kernel._log_block = 7
    statuses = []
    advance = kernel._jit_advance

    def counted(arguments):
        statuses.append(advance(arguments))
        return statuses[-1]

    kernel._jit_advance = counted
    oracle = StepLoop(make().kernel)
    for budget in (dict(max_events=400), dict(duration=2e-9)):
        assert hooked(simulator.run, simulator.new_state(), **budget) == \
            hooked(oracle.run, oracle.new_state(), **budget)
    assert statuses.count(STATUS_LOG_FULL) > 50


@pytest.mark.parametrize("loop", LOOPS)
def test_a_memo_cap_clears_mid_run(loop):
    make = trap_set(traps=((0.2, 4e-11, 7e-11), (0.35, 9e-11, 5e-11)),
                    temperature=2.0)
    simulator = build(loop, make)
    oracle = StepLoop(make().kernel)
    clears = []
    for kernel in (simulator.kernel, oracle.kernel):
        kernel._rate_cache_limit = 3
    store = simulator.kernel._store_entry

    def counted(key, entry):
        kernel = simulator.kernel
        if len(kernel._rate_cache) + kernel._unlisted \
                >= kernel._rate_cache_limit:
            clears.append(1)
        store(key, entry)

    simulator.kernel._store_entry = counted
    state = simulator.new_state()
    expected = oracle.new_state()
    for budget in (dict(max_events=500), dict(duration=1e-9)):
        assert hooked(simulator.run, state, **budget) == \
            hooked(oracle.run, expected, **budget)
    assert len(clears) > 10

