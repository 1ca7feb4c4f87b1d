"""The exact single-island tier: ``MasterEngine.solve_devices``.

A device batch on ``master`` is solved as one closed-form birth-death chain
per bias point (:meth:`AnalyticSETModel.chain_current`), not by per-row
sessions.  These tests pin:

* the chain's own accuracy: on random devices (per-junction overrides, a
  grounded second gate, offsets, ``kT/E_C`` from 0 to 3, either drain
  polarity) it is within ``1e-12`` of each row's peak current of an exact
  rational solution of the same rates;
* its agreement with the per-row ``bind`` + ``solve`` path on the same
  devices, bit for bit (:data:`SESSION_BOUND`): sessions run the same
  chain, and rows that fall back to them are theirs;
* a row's currents do not depend on the other rows of its table;
* a reducible chain (a zero rate trapping mass away from the start state)
  falls back, bit for bit;
* each window attempt makes one rate-kernel call, and a window that would
  outgrow :data:`~repro.master.statespace.MAX_STATES` reports
  ``master.window_truncated``;
* the ``design_margin_map`` scenario grid keeps the verdicts of the
  per-row loop.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compact import set_model
from repro.constants import BOLTZMANN, E_CHARGE
from repro.core.rates import orthodox_rate_vec
from repro.design import DesignSpec, DeviceScan
from repro.devices import SETTransistor
from repro.engines import BiasPoint, DeviceTable, get_engine
from repro.engines.adapters import analytic_model_for_table
from repro.engines.base import Engine
from repro.master import statespace, steadystate
from repro.resilience.events import capture_degradations
from repro.scenarios.registry import get_scenario

#: Accuracy of the chain against an exact solution of its own rates,
#: relative to a row's peak current (measured: below 1e-13).
BOUND = 1e-12

#: Agreement of the chain with per-row sessions, relative to a row's peak.
#: Sessions solve each point on the same windowed chain, and a point's
#: current does not depend on the batch it is solved in, so the two agree
#: exactly.  (Sessions used to solve a dense master equation, whose
#: current is a difference of larger junction flows: up to 1.2e-11 of peak
#: on random rows and 9.2e-10 at a junction resistance ratio of 1000 with
#: kT/E_C = 3 and a 1 mV drain, where this bound was 5e-9.)
SESSION_BOUND = 0.0


def per_row(table, gates, drains):
    """The per-device path: bind each row, solve its biases in order."""
    engine = get_engine("master")
    currents = np.empty(gates.shape)
    for row in range(len(table)):
        session = engine.bind(table.device(row), **table.bind_options(row))
        for column in range(gates.shape[1]):
            currents[row, column] = session.solve(BiasPoint(
                float(gates[row, column]), float(drains[row, column]))).current
    return currents


@contextmanager
def fallback_rows():
    """Collect the rows ``solve_devices`` hands back to per-row sessions."""
    rows = []
    device = DeviceTable.device

    def spy(table, row):
        rows.append(int(row))
        return device(table, row)

    with mock.patch.object(DeviceTable, "device", spy):
        yield rows


def assert_within(currents, reference, bound):
    """``currents`` within ``bound`` of each row's peak of ``reference``."""
    peak = np.abs(reference).max(axis=1, keepdims=True)
    assert np.all(np.abs(currents - reference) <= bound * peak)


capacitances = st.floats(min_value=3e-19, max_value=4e-18)
rows = st.fixed_dictionaries({
    "junction_capacitance": capacitances,
    "drain_capacitance": capacitances,
    "gate_capacitance": st.floats(min_value=3e-19, max_value=5e-18),
    "second_gate_capacitance": capacitances,
    "junction_resistance": st.floats(min_value=1e5, max_value=1e8),
    "source_resistance": st.floats(min_value=1e5, max_value=1e8),
    "charge_e": st.floats(min_value=-1.0, max_value=1.0),
    "theta": st.one_of(st.just(0.0),
                       st.floats(min_value=0.003, max_value=3.0)),
    "drain": st.floats(min_value=1e-3, max_value=0.08),
    "drain_sign": st.sampled_from([-1.0, 1.0]),
    "gates": st.lists(st.floats(min_value=-1.0, max_value=1.5),
                      min_size=1, max_size=3),
})


def table_at(base, columns, thetas, background=None):
    """A device table whose rows sit at the given ``kT / E_C``."""
    total = DeviceTable(base, columns, np.zeros(len(thetas))).total_capacitance
    return DeviceTable(base, columns,
                       np.asarray(thetas) * E_CHARGE ** 2
                       / (2.0 * total * BOLTZMANN), background)


def build_table(draws, overrides, dual_gate):
    """A device table, gates and drains from drawn rows.

    ``overrides`` adds the per-junction columns, ``dual_gate`` the
    grounded second gate; each row's temperature follows from its
    ``kT / E_C``.
    """
    names = ["junction_capacitance", "gate_capacitance",
             "junction_resistance"]
    if overrides:
        names += ["drain_capacitance", "source_resistance"]
    if dual_gate:
        names += ["second_gate_capacitance"]
    table = table_at(
        SETTransistor(background_charge=0.13 * E_CHARGE),
        {name: [row[name] for row in draws] for name in names},
        [row["theta"] for row in draws],
        np.array([row["charge_e"] for row in draws]) * E_CHARGE)
    width = max(len(row["gates"]) for row in draws)
    fractions = np.array([(row["gates"] * width)[:width] for row in draws])
    gates = fractions * table.gate_period[:, None]
    drains = np.array([[row["drain"] * row["drain_sign"]] * width
                       for row in draws])
    return table, gates, drains


def stiff_row(**values):
    """A drawn row at the smallest capacitances and a 1 mV drain."""
    return {"junction_capacitance": 3e-19, "drain_capacitance": 3e-19,
            "gate_capacitance": 3e-19, "second_gate_capacitance": 3e-19,
            "junction_resistance": 1e5, "source_resistance": 1e5,
            "charge_e": 0.13, "drain": 1e-3, "drain_sign": 1.0,
            "gates": [-0.9, 0.12, 0.4], **values}


class TestChainAgainstSessions:
    @given(draws=st.lists(rows, min_size=1, max_size=4),
           overrides=st.booleans(), dual_gate=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_row_sessions(self, draws, overrides,
                                            dual_gate):
        table, gates, drains = build_table(draws, overrides, dual_gate)
        with fallback_rows() as fallback:
            batched = get_engine("master").solve_devices(table, gates, drains)
        looped = per_row(table, gates, drains)
        assert_within(batched, looped, SESSION_BOUND)
        np.testing.assert_array_equal(batched[fallback], looped[fallback])

    @given(draws=st.lists(rows, min_size=1, max_size=4),
           overrides=st.booleans(), dual_gate=st.booleans())
    @settings(max_examples=60, deadline=None)
    # Devices where sessions are off by 1e-12 to 1e-11 of peak: a
    # resistance ratio of 570 at kT/E_C = 2.85; kT/e|V_d| ~ 200; T = 0.
    @example(draws=[stiff_row(
        junction_capacitance=2.2894274545892447e-18,
        drain_capacitance=3.730769976918221e-18,
        gate_capacitance=1.0467875862534927e-18,
        second_gate_capacitance=1.5043285246653707e-18,
        junction_resistance=111620.22728352468,
        source_resistance=63371183.59526746, theta=2.850366076727949,
        drain=0.0031173143587681232)], overrides=True, dual_gate=True)
    @example(draws=[stiff_row(theta=3.0),
                    stiff_row(junction_capacitance=4e-18, theta=0.0)],
             overrides=True, dual_gate=False)
    def test_chain_matches_exact_rational_solution(self, draws, overrides,
                                                   dual_gate):
        table, gates, drains = build_table(draws, overrides, dual_gate)
        # Both sides solve the same +-12 window: only the arithmetic differs.
        points = np.repeat(np.arange(len(table)), gates.shape[1])
        model = analytic_model_for_table(table, points)
        chain, _, reducible = model.chain_current(drains.ravel(),
                                                  gates.ravel(), 12)
        exact = np.array([exact_current(table, row, drain, gate, half=12)
                          for row, drain, gate in zip(
                              points, drains.ravel(), gates.ravel())])
        # A trapped point has no stationary state reachable from the start.
        np.testing.assert_array_equal(reducible, np.isnan(exact))
        chain[reducible] = exact[reducible] = 0.0
        assert_within(chain.reshape(gates.shape), exact.reshape(gates.shape),
                      BOUND)

    def test_reducible_row_falls_back_bit_for_bit(self):
        # At T = 0 this offset puts the source junction exactly at
        # degeneracy in the start state n = 0 (dF = 0.0, rate 0) while the
        # negative drain pulls an electron in: 0 -> 1 has a rate, 1 -> 0
        # has none, so the mass leaves the start state for good.
        drain = -0.010000000000000018
        device = SETTransistor(background_charge=9.010883170000001e-20)
        table = DeviceTable(device, {"gate_capacitance": [2e-18, 3e-18]},
                            [0.0, 1.0])
        gates = np.array([[0.0, 0.07], [0.0, 0.027]])
        model = analytic_model_for_table(table, np.array([0, 0]))
        _, _, reducible = model.chain_current(np.full(2, drain),
                                              gates[0], 3)
        assert reducible.tolist() == [True, False]
        with fallback_rows() as fallback:
            batched = get_engine("master").solve_devices(table, gates, drain)
        looped = per_row(table, gates, np.full(gates.shape, drain))
        assert fallback == [0]
        assert batched[0, 1] != 0.0
        np.testing.assert_array_equal(batched[0], looped[0])
        assert np.all(np.abs(batched[1] - looped[1])
                      <= BOUND * np.abs(looped[1]).max())


    def test_only_reducible_points_reach_the_solver(self):
        # The T = 0 table of test_chaos_design's failing-splu scan: at a
        # -60 mV drain the off point (gate 0) of each row is reducible.
        drain = -0.06
        table = DeviceTable(
            SETTransistor(background_charge=1.401088317e-19),
            {"gate_capacitance": [2e-18, 3e-18]}, [0.0, 0.0])
        gates = np.outer(table.gate_period, [0.94, 0.0])
        model = analytic_model_for_table(table, np.array([0, 0, 1, 1]))
        _, _, reducible = model.chain_current(np.full(4, drain),
                                              gates.ravel(), 3)
        assert reducible.tolist() == [False, True, False, True]
        batched = []
        solver = steadystate.MasterEquationSolver
        with mock.patch.object(solver, "sweep_source", autospec=True,
                               side_effect=solver.sweep_source) as solves:
            attempts, _ = kernel_calls(lambda: batched.append(
                get_engine("master").solve_devices(table, gates, drain)))
        assert attempts == 1
        assert [len(call.args[2]) for call in solves.call_args_list] == [1, 1]
        looped = Engine.solve_devices(get_engine("master"), table, gates,
                                      drain)
        np.testing.assert_array_equal(batched[0], looped)


def exact_current(table, row, drain, gate, half):
    """The chain's current in exact rational arithmetic on its own rates.

    The same start state, cut rule and float64 rates as
    :meth:`AnalyticSETModel.chain_current`, on a ``+-half`` window; only
    the weights and the flow sums are exact.  NaN where a reachable bond
    has no way back (the chain is reducible).
    """
    model = analytic_model_for_table(table, np.array([row]))
    drain, gate = np.array([drain]), np.array([gate])
    start = np.ceil(model._induced_charge(drain, gate, 0.0) - 0.5)
    drain_in, source_in = model._in_energies(
        np.arange(-half, half, dtype=float)[:, None] + start, drain, gate,
        0.0)
    temperature = float(table.temperature[row])
    up_drain, down_drain = orthodox_rate_vec(
        np.stack([drain_in, -drain_in])[..., 0], float(table.r_drain[row]),
        temperature)
    up_source, down_source = orthodox_rate_vec(
        np.stack([source_in, -source_in])[..., 0],
        float(table.r_source[row]), temperature)
    up = [Fraction(a) + Fraction(b) for a, b in zip(up_drain, up_source)]
    down = [Fraction(a) + Fraction(b) for a, b in zip(down_drain, down_source)]
    weights = [Fraction(0)] * (2 * half + 1)
    weights[half] = Fraction(1)
    for bond in range(half, 2 * half):
        if not up[bond]:
            break
        if not down[bond]:
            return float("nan")
        weights[bond + 1] = weights[bond] * up[bond] / down[bond]
    for bond in range(half - 1, -1, -1):
        if not down[bond]:
            break
        if not up[bond]:
            return float("nan")
        weights[bond] = weights[bond + 1] * down[bond] / up[bond]
    flow = sum(weights[bond + 1] * Fraction(down_drain[bond])
               - weights[bond] * Fraction(up_drain[bond])
               for bond in range(2 * half))
    return float(flow / sum(weights) * Fraction(E_CHARGE))


def kernel_calls(function):
    """Window attempts and ``orthodox_rate_vec`` calls of ``function()``."""
    chain = set_model.AnalyticSETModel.chain_current
    with mock.patch.object(set_model, "orthodox_rate_vec",
                           wraps=set_model.orthodox_rate_vec) as kernel, \
            mock.patch.object(set_model.AnalyticSETModel, "chain_current",
                              autospec=True, side_effect=chain) as attempts:
        function()
    return attempts.call_count, kernel.call_count


def test_a_row_solves_alike_alone_and_in_a_table():
    # kT/E_C from 0.5 to 3: first windows of 11 to 23 states, where a
    # one-point batch's state sums used to round differently from a wider
    # batch's, and where the table's hottest row used to size every row's
    # window.
    rng = np.random.default_rng(2024)
    count = 40
    table = table_at(
        SETTransistor(background_charge=0.13 * E_CHARGE),
        {"gate_capacitance": rng.uniform(1e-18, 3e-18, count),
         "junction_resistance": rng.uniform(1e5, 1e7, count)},
        rng.uniform(0.5, 3.0, count))
    gates = (rng.uniform(-1.0, 1.5, count) * table.gate_period)[:, None]
    drains = rng.uniform(-0.08, 0.08, (count, 1))
    engine = get_engine("master")
    together = engine.solve_devices(table, gates, drains)
    for row in range(count):
        alone = engine.solve_devices(table.take([row]), gates[row:row + 1],
                                     drains[row:row + 1])
        np.testing.assert_array_equal(alone[0], together[row])


class TestWindow:
    def table(self, temperature):
        return DeviceTable(SETTransistor(),
                           {"gate_capacitance": [1e-18, 2e-18, 4e-18]},
                           [temperature] * 3)

    def test_one_rate_call_per_window_attempt(self):
        engine = get_engine("master")
        table = self.table(1.0)
        gates = np.outer(table.gate_period, [0.0, 0.5])
        assert kernel_calls(lambda: engine.solve_devices(table, gates,
                                                         0.01)) == (1, 1)
        # A 0.3 V drain spreads the charge over several states: the
        # window widens, one rate call per attempt.
        attempts, calls = kernel_calls(
            lambda: engine.solve_devices(table, gates, 0.3))
        assert attempts > 1
        assert calls == attempts

    def test_window_truncation_is_reported(self, monkeypatch):
        # kT/E_C ~ 0.6: +-3 states leave ~1e-4 on the boundary.
        table = self.table(200.0)
        gates = np.outer(table.gate_period, [0.0, 0.5])
        engine = get_engine("master")
        with capture_degradations() as events:
            widened = engine.solve_devices(table, gates, 0.01)
        assert not events
        monkeypatch.setattr(statespace, "MAX_STATES", 7)
        with capture_degradations() as events:
            truncated = engine.solve_devices(table, gates, 0.01)
        assert [event.site for event in events] == ["master.window_truncated"]
        assert "7-state window" in events[0].detail
        model = analytic_model_for_table(table)
        kept, mass, _ = model.chain_current(np.full(gates.shape, 0.01),
                                            gates, 3)
        np.testing.assert_array_equal(truncated, kept)
        assert mass.max() > steadystate.BOUNDARY_MASS_TOLERANCE
        assert not np.array_equal(truncated, widened)


@pytest.fixture(scope="module")
def margin_map_design():
    spec = get_scenario("design_margin_map").spec
    return DesignSpec.from_dict({**dict(spec.params["design"]),
                                 "engine": "master"})


def test_margin_map_verdicts_match_the_per_row_loop(margin_map_design,
                                                    monkeypatch):
    chain = DeviceScan(margin_map_design).run()
    monkeypatch.setattr(type(get_engine("master")), "solve_devices",
                        Engine.solve_devices)
    looped = DeviceScan(margin_map_design).run()
    assert chain.verdicts.tolist() == looped.verdicts.tolist()
    assert chain.statuses == looped.statuses
    finite = np.isfinite(looped.margins)
    np.testing.assert_array_equal(finite, np.isfinite(chain.margins))
    np.testing.assert_allclose(chain.margins[finite], looped.margins[finite],
                               rtol=1e-12, atol=1e-12)
