"""Property tests of device-batched evaluation against the per-device path.

A design scan evaluates each chunk as one array computation: one
``Engine.solve_devices`` call over a :class:`~repro.engines.DeviceTable`,
array-valued constraints, and tolerance samples deviated from standard
variates drawn once per scan.  These properties pin that batch to the
per-device ``bind`` + ``solve`` path it replaces:

* the analytic batch agrees with per-row sessions within the documented
  ulp contract of :meth:`AnalyticSETModel.drain_current` (bit-identical on
  ``T = 0`` rows);
* the default ``solve_devices`` loop *is* the per-row path, so
  ``montecarlo`` returns bit-identical currents; ``master``'s closed-form
  chain runs in its sessions too, so it matches them within
  ``test_exact_tier.SESSION_BOUND`` (0: bit for bit);
* batched tolerance deviations equal :meth:`ToleranceModel.sample_device`
  value for value;
* a batched scan classifies every point as per-point constraint
  evaluation does, and the tolerance-MC yields of the design test spec
  hold their pinned values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN, E_CHARGE
from repro.design import DeviceScan, analyze_yield
from repro.design.constraints import DesignPoint, build_constraints
from repro.design.tolerance import ComponentDeviation, ToleranceModel
from repro.devices import SETTransistor
from repro.engines import BiasPoint, DeviceTable, get_engine

from ..design.conftest import TOLERANCES, make_spec
from .test_exact_tier import SESSION_BOUND, assert_within

#: Documented bound of the analytic array path where ``e|V_d| >= 3 kT``.
ARRAY_MAX_ULP = 4096

capacitances = st.floats(min_value=1e-19, max_value=5e-18)
gate_capacitances = st.floats(min_value=2e-19, max_value=1e-17)
resistances = st.floats(min_value=1e5, max_value=1e8)
temperatures = st.sampled_from([0.0, 0.05, 0.5, 1.0, 4.0, 30.0])
drain_magnitudes = st.floats(min_value=1e-3, max_value=0.1)

rows = st.fixed_dictionaries({
    "junction_capacitance": capacitances,
    "drain_capacitance": capacitances,
    "gate_capacitance": gate_capacitances,
    "junction_resistance": resistances,
    "source_resistance": resistances,
    "charge_e": st.floats(min_value=-1.0, max_value=1.0),
    "temperature": temperatures,
    "drain": drain_magnitudes,
    "drain_sign": st.sampled_from([-1.0, 1.0]),
    "on": st.floats(min_value=-1.0, max_value=1.0),
    "off": st.floats(min_value=-1.0, max_value=1.0),
})

DEVICE_COLUMNS = ("junction_capacitance", "drain_capacitance",
                  "gate_capacitance", "junction_resistance",
                  "source_resistance")


def build_batch(draws, own_offset):
    """A device table plus (gates, drains) from drawn rows."""
    base = SETTransistor(background_charge=0.13 * E_CHARGE)
    columns = {name: [row[name] for row in draws] for name in DEVICE_COLUMNS}
    charge = None if own_offset else \
        np.array([row["charge_e"] for row in draws]) * E_CHARGE
    table = DeviceTable(base, columns,
                        [row["temperature"] for row in draws], charge,
                        seeds=list(range(11, 11 + len(draws))))
    fractions = np.array([[row["on"], row["off"]] for row in draws])
    gates = fractions * table.gate_period[:, None]
    drains = np.array([row["drain"] * row["drain_sign"]
                       for row in draws])[:, None]
    return table, gates, drains


def per_row(engine, table, gates, drains, **budget):
    """The per-device path: bind each row, solve its biases in order."""
    currents = np.empty(gates.shape)
    for row in range(len(table)):
        session = engine.bind(table.device(row), **budget,
                              **table.bind_options(row))
        for column in range(gates.shape[1]):
            currents[row, column] = session.solve(BiasPoint(
                float(gates[row, column]), float(drains[row, 0]))).current
    return currents


class TestSolveDevices:
    @given(draws=st.lists(rows, min_size=1, max_size=8),
           own_offset=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_analytic_batch_matches_per_row_sessions(self, draws,
                                                     own_offset):
        engine = get_engine("analytic")
        table, gates, drains = build_batch(draws, own_offset)
        batched = engine.solve_devices(table, gates, drains)
        looped = per_row(engine, table, gates, drains)
        assert batched.shape == gates.shape
        frozen = table.temperature == 0.0
        np.testing.assert_array_equal(batched[frozen], looped[frozen])
        biased = np.abs(drains[:, 0]) * E_CHARGE \
            >= 3.0 * BOLTZMANN * table.temperature
        np.testing.assert_array_max_ulp(batched[biased], looped[biased],
                                        maxulp=ARRAY_MAX_ULP)

    @pytest.mark.parametrize("name", ["master", "montecarlo"])
    @given(draws=st.lists(rows, min_size=1, max_size=3),
           own_offset=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_default_loop_is_the_per_row_path(self, name, draws,
                                              own_offset):
        # Keep the master windows and MC runs small: a warm operating point.
        draws = [dict(row, temperature=max(row["temperature"], 0.5))
                 for row in draws]
        engine = get_engine(name)
        table, gates, drains = build_batch(draws, own_offset)
        budget = {"max_events": 300, "warmup_events": 30}
        batched = engine.solve_devices(table, gates, drains, **budget)
        looped = per_row(engine, table, gates, drains, **budget)
        if name == "montecarlo":
            np.testing.assert_array_equal(batched, looped)
        else:
            # master overrides the loop with its closed-form chain.
            assert_within(batched, looped, SESSION_BOUND)


deviations = st.one_of(
    st.builds(ComponentDeviation.from_tolerance,
              st.floats(min_value=0.01, max_value=0.5),
              st.sampled_from(["uniform", "normal"])),
    st.builds(lambda low, width, distribution:
              ComponentDeviation.from_min_max(low, low + width,
                                              distribution),
              st.floats(min_value=1e-20, max_value=1e-18),
              st.floats(min_value=1e-20, max_value=2e-18),
              st.sampled_from(["uniform", "normal"])),
)


class TestToleranceBatch:
    @given(elements=st.dictionaries(
               st.sampled_from(["junction_capacitance", "gate_capacitance",
                                "junction_resistance"]),
               deviations, min_size=1, max_size=3),
           nominals=st.lists(capacitances, min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           samples=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_batched_deviations_equal_sample_device(self, elements,
                                                    nominals, seed, samples):
        model = ToleranceModel(elements)
        devices = [SETTransistor(junction_capacitance=value,
                                 gate_capacitance=2.0 * value,
                                 junction_resistance=1e6 * value / 1e-18)
                   for value in nominals]
        draws = model.draws(seed, samples)
        for element, deviation in model.deviations.items():
            nominal = np.array([getattr(d, element) for d in devices])
            batched = deviation.deviate(nominal[:, None], draws[element])
            reference = np.array([
                [getattr(model.sample_device(device, seed, sample), element)
                 for sample in range(samples)] for device in devices])
            np.testing.assert_array_equal(batched, reference)


class TestBatchedScan:
    @given(values=st.lists(gate_capacitances, min_size=1, max_size=6,
                           unique=True),
           temperature=st.sampled_from([0.5, 1.0, 4.0]),
           chunk_size=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_scan_classifies_like_per_point_evaluation(self, values,
                                                       temperature,
                                                       chunk_size):
        spec = make_spec(axes=[{"parameter": "gate_capacitance",
                                "values": values}],
                         temperature=temperature, chunk_size=chunk_size)
        feasibility = DeviceScan(spec).run()
        constraints = build_constraints(spec.constraints)
        engine = get_engine("analytic")
        for index, value in enumerate(values):
            device = SETTransistor(gate_capacitance=value)
            session = engine.bind(device, temperature=temperature)
            on, off = (session.solve(BiasPoint(
                fraction * device.gate_period, spec.drain_voltage)).current
                for fraction in (spec.on_gate_fraction,
                                 spec.off_gate_fraction))
            point = DesignPoint(device=device, temperature=temperature,
                                drain_voltage=spec.drain_voltage,
                                on_current=on, off_current=off)
            verdicts = [c.evaluate(point) for c in constraints]
            assert bool(feasibility.verdicts[index] == 1) == \
                all(v.satisfied for v in verdicts)
            np.testing.assert_allclose(
                feasibility.margins[:, index], [v.margin for v in verdicts],
                rtol=1e-12, atol=1e-12)


class TestPinnedYields:
    """Yields pinned from the per-device implementation this batch replaced."""

    def test_design_test_spec_yields(self):
        spec = make_spec(tolerances=TOLERANCES, tolerance_samples=32,
                         seed=11)
        assert DeviceScan(spec).run().yields.tolist() == [
            0.0, 0.0, 0.21875, 0.875, 1.0, 1.0, 1.0, 1.0, 1.0]
        report = analyze_yield(spec, flat_index=4)
        assert report.feasible_samples == 32
        assert [c["feasible"] for c in report.corners] == [True] * 4

    def test_unbuildable_samples_count_as_infeasible(self):
        # A min/max band crossing zero capacitance: those samples cannot
        # be built and must count as infeasible, not abort the scan.
        spec = make_spec(tolerances={"junction_capacitance": {
            "kind": "minmax", "min": -2e-19, "max": 1.5e-18}},
            tolerance_samples=16, seed=3)
        assert DeviceScan(spec).run().yields.tolist() == [
            0.5, 0.625, 0.6875, 0.75, 0.875, 0.875, 0.875, 0.875, 0.875]
