"""Engine-contract conformance suite.

Every registered engine runs through the same protocol checks:
``bind`` -> ``solve`` / ``sweep`` / ``stream`` behaviour, result-model
invariants, seeded reproducibility and the R = 1 ensemble equivalence; the
base :class:`~repro.engines.Session` owns the failure policy of every
session.  A new backend only has to register itself to be covered.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import (
    BiasPoint,
    DeviceTable,
    Observables,
    SweepAxes,
    ENGINE_ALIASES,
    Session,
    SweepResult,
    engine_names,
    get_engine,
)
from repro.errors import SolverError, ValidationError
from repro.io.results import SweepRecord
from repro.resilience import FailurePolicy

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 2e-3

#: Small stochastic budgets keep the whole conformance matrix fast; the
#: deterministic engines ignore them.
BIND_KWARGS = dict(temperature=TEMPERATURE, seed=123, max_events=400,
                   warmup_events=50, replicas=3)

#: Every registered engine plus every retired name that still resolves: a
#: spec may still carry ``montecarlo-jit`` or ``ensemble-jit``, so the
#: protocol must hold through the aliases too.
NAMES = [*engine_names(), *ENGINE_ALIASES]


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    # Three points across the conducting flank of the first oscillation.
    gates = np.linspace(0.25, 0.75, 3) * device.gate_period
    return SweepAxes(gates, DRAIN_VOLTAGE)


def bind(name, device, **overrides):
    kwargs = dict(BIND_KWARGS)
    kwargs.update(overrides)
    return get_engine(name).bind(device, **kwargs)


@pytest.mark.parametrize("name", NAMES)
class TestEngineContract:
    """The shared protocol checks, over every registered engine and alias."""

    def test_bind_produces_a_session_named_after_the_engine(self, name,
                                                            device):
        session = bind(name, device)
        assert session.engine_name == get_engine(name).name
        assert session.device is device
        assert session.temperature == TEMPERATURE

    def test_solve_returns_finite_observables(self, name, device, axes):
        session = bind(name, device)
        observed = session.solve(BiasPoint(axes.gate_voltages[1],
                                           DRAIN_VOLTAGE))
        assert isinstance(observed, Observables)
        assert np.isfinite(observed.current)
        assert observed.current > 0.0
        assert observed.engine == get_engine(name).name
        stochastic = get_engine(name).capabilities().stochastic
        if stochastic:
            assert observed.stderr is not None
            assert np.isfinite(observed.stderr)
        else:
            assert observed.stderr is None

    def test_sweep_covers_every_point_with_matching_error_bars(self, name,
                                                               device, axes):
        session = bind(name, device)
        result = session.sweep(axes)
        assert isinstance(result, SweepResult)
        assert len(result) == len(axes)
        assert result.engine == get_engine(name).name
        assert np.all(np.isfinite(result.currents))
        stochastic = get_engine(name).capabilities().stochastic
        if stochastic:
            assert result.stderrs is not None
            assert result.stderrs.shape == result.currents.shape
            assert np.all(np.isfinite(result.stderrs))
        else:
            assert result.stderrs is None
        gates, currents = result.gates, result.currents
        assert np.array_equal(gates, axes.gates)
        assert currents.shape == gates.shape

    def test_stream_yields_each_point_in_axis_order(self, name, device, axes):
        session = bind(name, device)
        streamed = list(session.stream(axes))
        assert len(streamed) == len(axes)
        assert [gate for gate, _ in streamed] == list(axes.gate_voltages)
        for _, observed in streamed:
            assert isinstance(observed, Observables)
            assert np.isfinite(observed.current)

    def test_same_seed_same_sweep(self, name, device, axes):
        first = bind(name, device).sweep(axes)
        second = bind(name, device).sweep(axes)
        assert np.array_equal(first.currents, second.currents)
        if first.stderrs is not None:
            assert np.array_equal(first.stderrs, second.stderrs)

    def test_deterministic_sweep_matches_per_point_solve(self, name, device,
                                                         axes):
        if get_engine(name).capabilities().stochastic:
            pytest.skip("stochastic estimates differ by RNG consumption")
        session = bind(name, device)
        swept = session.sweep(axes)
        solved = [session.solve(bias).current for bias in axes.bias_points()]
        assert np.allclose(swept.currents, solved, rtol=1e-9, atol=0.0)

    def test_solve_devices_matches_per_device_sessions(self, name, device):
        # Two devices, each at its own temperature, offset, seed and biases.
        table = DeviceTable(device, {"gate_capacitance": [2e-18, 3e-18]},
                            temperature=[TEMPERATURE, 2.0],
                            background_charge=[0.0, 1e-20], seeds=[5, 6])
        gates = np.outer(table.gate_period, [0.5, 0.3])
        budget = dict(max_events=400, warmup_events=50, replicas=3)
        batched = get_engine(name).solve_devices(table, gates,
                                                 DRAIN_VOLTAGE, **budget)
        looped = np.empty(gates.shape)
        for row in range(len(table)):
            session = get_engine(name).bind(table.device(row), **budget,
                                            **table.bind_options(row))
            for column, gate in enumerate(gates[row]):
                looped[row, column] = session.solve(
                    BiasPoint(float(gate), DRAIN_VOLTAGE)).current
        assert batched.shape == (2, 2)
        if name == "analytic":
            np.testing.assert_array_max_ulp(batched, looped, maxulp=4096)
        elif name == "master":
            # The closed-form chain: within 1e-12 of each row's peak.
            peak = np.abs(looped).max(axis=1, keepdims=True)
            assert np.all(np.abs(batched - looped) <= 1e-12 * peak)
        else:
            np.testing.assert_array_equal(batched, looped)

    def test_sweep_result_bridges_to_a_sweep_record(self, name, device, axes):
        result = bind(name, device).sweep(axes)
        record = result.record("contract_sweep", metadata={"k": "v"})
        assert isinstance(record, SweepRecord)
        assert record.metadata["engine"] == get_engine(name).name
        assert record.metadata["k"] == "v"
        assert np.array_equal(record.trace("I_drain [A]"), result.currents)
        if result.stderrs is not None:
            assert np.array_equal(record.trace("stderr I_drain [A]"),
                                  result.stderrs)

    def test_per_point_offset_charge_shifts_the_characteristic(self, name,
                                                               device):
        # Half an electron of island offset shifts the Id-Vg phase: the
        # conduction peak moves into blockade, so the current collapses.
        # Every engine must honour BiasPoint.offset_charge.
        from repro.constants import E_CHARGE

        session = bind(name, device)
        gate = 0.5 * device.gate_period   # on-peak without offset
        plain = session.solve(BiasPoint(gate, DRAIN_VOLTAGE))
        shifted = session.solve(BiasPoint(gate, DRAIN_VOLTAGE,
                                          offset_charge=0.5 * E_CHARGE))
        assert abs(shifted.current - plain.current) \
            > 0.3 * abs(plain.current)

    def test_per_point_offset_does_not_leak_into_later_sweeps(self, name,
                                                              device, axes):
        # A solve() with offset_charge is per-point only: the next sweep on
        # the same session must match a fresh session's sweep exactly.
        from repro.constants import E_CHARGE

        probed = bind(name, device)
        probed.solve(BiasPoint(0.5 * device.gate_period, DRAIN_VOLTAGE,
                               offset_charge=0.5 * E_CHARGE))
        after_probe = probed.sweep(axes)
        fresh = bind(name, device).sweep(axes)
        if get_engine(name).capabilities().stochastic:
            # The probe advanced the session's random stream, so exact
            # replay is impossible — but a leaked half-electron offset
            # would collapse the on-peak current by ~90 orders of
            # magnitude, which this bound excludes.
            assert after_probe.currents.max() \
                > 0.3 * fresh.currents.max()
        else:
            assert np.array_equal(after_probe.currents, fresh.currents)


class _MinimalSession(Session):
    """A session with only ``solve`` and ``_sweep``; the fast path is down.

    Its solve returns the gate voltage as the current and fails at
    ``broken_gate``, so salvaged values and statuses are easy to read.
    """

    def __init__(self, device, broken_gate):
        super().__init__("minimal", device, TEMPERATURE)
        self.broken_gate = broken_gate
        self.fast_path_workers = []

    def solve(self, bias):
        if bias.gate_voltage == self.broken_gate:
            raise SolverError("this point never solves")
        return Observables(current=bias.gate_voltage, engine=self.engine_name)

    def _sweep(self, axes, workers):
        self.fast_path_workers.append(workers)
        raise SolverError("the fast path is down")


class TestSessionBase:
    def test_policy_sweep_salvages_a_minimal_session_per_point(self, device,
                                                               axes):
        # The base class owns the failure policy: a session that implements
        # only solve and _sweep gets typed statuses and per-point salvage.
        broken = axes.gate_voltages[1]
        session = _MinimalSession(device, broken_gate=broken)
        result = session.sweep(axes, policy=FailurePolicy())
        assert session.fast_path_workers == [1]
        assert [record.status for record in result.statuses] == \
            ["ok", "failed", "ok"]
        assert result.statuses[1].attempts == 2
        assert result.currents[0] == axes.gate_voltages[0]
        assert np.isnan(result.currents[1])
        assert result.currents[2] == axes.gate_voltages[2]
        assert result.engine == "minimal"

    def test_sweep_without_a_policy_is_the_fast_path(self, device, axes):
        session = _MinimalSession(device, broken_gate=None)
        with pytest.raises(SolverError, match="fast path is down"):
            session.sweep(axes, workers=2)
        assert session.fast_path_workers == [2]


class TestResultModel:
    """``SweepAxes`` and ``SweepResult`` behave as frozen values."""

    def test_axes_are_a_value_of_their_two_fields(self):
        gates = np.linspace(0.0, 0.1, 5)
        axes = SweepAxes(gates, DRAIN_VOLTAGE)
        same = SweepAxes(gates.tolist(), DRAIN_VOLTAGE)
        assert axes == same and hash(axes) == hash(same)
        assert axes != SweepAxes(gates, 2.0 * DRAIN_VOLTAGE)
        assert axes.gate_voltages == tuple(gates.tolist())
        assert all(type(value) is float for value in axes.gate_voltages)
        assert repr(axes) == (f"SweepAxes(gate_voltages="
                              f"{tuple(gates.tolist())!r}, "
                              f"drain_voltage={DRAIN_VOLTAGE!r})")
        for twin in (pickle.loads(pickle.dumps(axes)), copy.deepcopy(axes)):
            assert twin == axes and hash(twin) == hash(axes)
            np.testing.assert_array_equal(twin.gates, gates)
        with pytest.raises(dataclasses.FrozenInstanceError):
            axes.drain_voltage = 0.0

    def test_axes_hold_one_read_only_copy_of_the_gates(self):
        gates = np.linspace(0.0, 0.1, 5)
        axes = SweepAxes(gates, DRAIN_VOLTAGE)
        gates[0] = 1.0
        assert axes.gates is axes.gates
        assert axes.gates[0] == 0.0 and axes.gate_voltages[0] == 0.0
        with pytest.raises(ValueError):
            axes.gates[0] = 1.0
        assert len(axes) == 5
        with pytest.raises(ValidationError):
            SweepAxes([], DRAIN_VOLTAGE)

    def test_result_and_id_vg_gates_are_writable_copies(self, device):
        axes = SweepAxes(np.linspace(0.0, 0.1, 5), DRAIN_VOLTAGE)
        result = SweepResult(axes, np.zeros(5), None, "x")
        swept, _ = device.id_vg(axes.gates, DRAIN_VOLTAGE, 2.0)
        for gates in (result.gates, swept):
            gates *= 1e3
            np.testing.assert_array_equal(gates, axes.gates * 1e3)
        assert axes.gates[-1] == 0.1

    def test_results_keep_float64_currents_and_convert_the_rest(self):
        axes = SweepAxes([0.0, 0.1], DRAIN_VOLTAGE)
        currents = np.array([1.0, 2.0])
        assert SweepResult(axes, currents, None, "x").currents is currents
        for given in ([1, 2], np.array([1.0, 2.0], dtype=np.float32)):
            kept = SweepResult(axes, given, [0, 0], "x")
            assert kept.currents.dtype == kept.stderrs.dtype == np.float64
            np.testing.assert_array_equal(kept.currents, currents)
        with pytest.raises(ValidationError, match="2-point sweep axes"):
            SweepResult(axes, np.zeros(3), None, "x")
        with pytest.raises(ValidationError, match="stderrs shape"):
            SweepResult(axes, currents, np.zeros(3), "x")
        with pytest.raises(ValidationError, match="status records"):
            SweepResult(axes, currents, None, "x", statuses=())
        result = SweepResult(axes, currents, None, "x")
        assert dataclasses.replace(result, engine="y").engine == "y"
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.engine = "y"


class TestCrossEngineAgreement:
    def test_deterministic_engines_agree_on_peak(self, device):
        # Analytic and master agree to a few percent on the conduction peak.
        gate = 0.5 * device.gate_period
        currents = {name: bind(name, device).solve(
            BiasPoint(gate, DRAIN_VOLTAGE)).current
            for name in ("analytic", "master")}
        assert currents["analytic"] == pytest.approx(currents["master"],
                                                     rel=0.05)

    def test_stochastic_engines_bracket_the_master_value(self, device):
        gate = 0.5 * device.gate_period
        exact = bind("master", device).solve(
            BiasPoint(gate, DRAIN_VOLTAGE)).current
        for name in ("montecarlo", "ensemble"):
            observed = bind(name, device, max_events=4_000,
                            warmup_events=200).solve(
                BiasPoint(gate, DRAIN_VOLTAGE))
            margin = 5.0 * observed.stderr + 0.05 * exact
            assert abs(observed.current - exact) < margin

    def test_seeded_stochastic_engines_report_bit_identical_currents(
            self, device):
        # Same (device, seed): the scalar engine and the ensemble engine
        # (also through its retired name) at R = 1 all consume the random
        # stream in the same order and
        # share the ratio-of-sums current estimator, so the reported means
        # are bit-identical — not merely statistically close.  (max_events
        # must divide evenly into the estimator's 10 blocks so scalar block
        # edges land on the same event boundaries.)
        bias = BiasPoint(0.5 * device.gate_period, DRAIN_VOLTAGE)
        currents = {}
        for name, replicas in (("montecarlo", 0), ("ensemble", 1),
                               ("ensemble-jit", 1)):
            session = bind(name, device, max_events=400, replicas=replicas)
            currents[name] = session.solve(bias).current
        assert len(set(currents.values())) == 1, currents


class TestEnsembleEquivalence:
    def test_r1_ensemble_replays_the_scalar_trajectory(self, device):
        # An R = 1 ensemble run through a protocol-bound simulator must
        # replay the step-loop oracle event for event.
        from ..montecarlo.reference_kernel import StepLoop

        scalar = bind("ensemble", device).simulator
        batched = bind("ensemble", device).simulator
        scalar_result = StepLoop(scalar.kernel).run(max_events=1_000)
        ensemble_result = batched.run_ensemble(replicas=1, max_events=1_000)
        assert ensemble_result.event_counts[0] == scalar_result.event_count
        assert ensemble_result.durations[0] == \
            pytest.approx(scalar_result.duration)
        for position, junction in enumerate(ensemble_result.junction_names):
            assert ensemble_result.electron_transfers[0, position] == \
                scalar_result.electron_transfers[junction]

    def test_ensemble_bind_coerces_replicas_to_at_least_two(self, device):
        session = bind("ensemble", device, replicas=0)
        assert session.replicas == 2
        session = bind("ensemble", device, replicas=7)
        assert session.replicas == 7


@pytest.mark.parametrize("name", NAMES)
class TestCapabilityFlags:
    """Every advertised EngineCapabilities flag has a conformance check.

    ``stochastic`` (error bars) is exercised by the contract tests above;
    these cover the flag surface itself and ``supports_ensemble``.
    """

    def test_flags_dict_is_complete_and_boolean(self, name):
        capabilities = get_engine(name).capabilities()
        flags = capabilities.flags()
        assert set(flags) == {"stochastic", "supports_ensemble"}
        assert all(isinstance(value, bool) for value in flags.values())
        assert capabilities.name == get_engine(name).name

    def test_ensemble_flag_matches_replica_semantics(self, name, device):
        # Engines advertising ensembles must honour an explicit replica
        # count and derive error bars; the rest must still solve cleanly
        # with replicas requested (ignored, not misinterpreted).
        session = bind(name, device, replicas=3)
        observed = session.solve(BiasPoint(0.5 * device.gate_period,
                                           DRAIN_VOLTAGE))
        assert np.isfinite(observed.current)
        if get_engine(name).capabilities().supports_ensemble:
            assert session.replicas == 3
            assert observed.stderr is not None

    def test_design_auto_selection_skips_stochastic_engines(self, name):
        # The design layer's "auto" engine introspects the stochastic flag:
        # a stochastic engine is never picked for a scan, whatever its cost.
        from repro.design import DesignSpec, DeviceScan

        auto = DeviceScan(DesignSpec.from_dict({
            "name": "auto_probe", "engine": "auto",
            "axes": [{"parameter": "gate_capacitance", "values": [2e-18]}],
            "constraints": [{"type": "gain", "threshold": 1.0}]})).engine
        assert not auto.capabilities().stochastic
        if get_engine(name).capabilities().stochastic:
            assert auto.name != get_engine(name).name


@pytest.mark.parametrize("name", NAMES)
class TestDesignScanEntryPoints:
    """Design scans run through every registered engine's session protocol."""

    def design_spec(self, name):
        from repro.design import DesignSpec

        return DesignSpec.from_dict({
            "name": f"contract_{name.replace('-', '_')}",
            "engine": name,
            "axes": [{"parameter": "gate_capacitance",
                      "values": [1.5e-18, 2.5e-18]}],
            "constraints": [{"type": "gain", "threshold": 1.0},
                            {"type": "on_off_ratio", "threshold": 2.0}],
            "budget": {"max_events": 400, "warmup_events": 50,
                       "replicas": 3},
            "seed": 123,
            "chunk_size": 1,
        })

    def test_scan_classifies_every_point_through_the_engine(self, name):
        from repro.design import DeviceScan

        feasibility = DeviceScan(self.design_spec(name)).run()
        assert feasibility.engine == get_engine(name).name
        assert sum(feasibility.counts().values()) == 2
        assert not feasibility.is_partial
        assert np.all(np.isfinite(feasibility.on_currents))

    def test_scan_is_seed_reproducible_per_engine(self, name):
        from repro.design import DeviceScan

        spec = self.design_spec(name)
        assert DeviceScan(spec).run().payload_json() == \
            DeviceScan(spec).run().payload_json()


class TestDeviceTable:
    """The column-form device batch behind ``Engine.solve_devices``."""

    def test_resolved_parameters_mirror_the_device(self, device):
        table = DeviceTable(device, {"drain_capacitance": [0.5e-18, 2e-18],
                                     "junction_resistance": [1e6, 3e6]},
                            temperature=[1.0, 1.0])
        for row in range(len(table)):
            built = table.device(row)
            assert table.c_drain[row] == built.c_drain
            assert table.c_source[row] == built.c_source
            assert table.r_drain[row] == built.r_drain
            assert table.total_capacitance[row] == built.total_capacitance
            assert table.voltage_gain[row] == built.voltage_gain
            assert table.max_operating_temperature(20.0)[row] == \
                built.max_operating_temperature(20.0)

    def test_rejected_rows_are_the_devices_that_cannot_be_built(self,
                                                               device):
        table = DeviceTable(device, {"gate_capacitance": [2e-18, -1e-18,
                                                          3e-18]},
                            temperature=[1.0, 1.0, 1.0])
        assert table.rejected().tolist() == [False, True, False]
        with pytest.raises(Exception, match="gate_capacitance"):
            table.device(1)
        kept = table.take(~table.rejected())
        assert len(kept) == 2
        assert kept.gate_capacitance.tolist() == [2e-18, 3e-18]

    @pytest.mark.parametrize("field, bad", [
        ("drain_capacitance", np.nan),
        ("source_capacitance", 0.0),
        ("drain_resistance", np.inf),
        ("source_resistance", -1.0),
        ("second_gate_capacitance", np.nan),
    ])
    def test_invalid_override_rows_are_rejected(self, device, field, bad):
        table = DeviceTable(device, {field: [1e-18, bad, 2e6]},
                            temperature=[1.0, 1.0, 1.0])
        assert table.rejected().tolist() == [False, True, False]
        with pytest.raises(Exception, match=field):
            table.device(1)

    def test_malformed_tables_are_refused(self, device):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="not SETTransistor"):
            DeviceTable(device, {"capacitance": [1e-18]}, temperature=[1.0])
        with pytest.raises(ValidationError, match="rows"):
            DeviceTable(device, {"gate_capacitance": [1e-18, 2e-18]},
                        temperature=[1.0])
        table = DeviceTable(device, {}, temperature=[1.0, 2.0])
        with pytest.raises(ValidationError, match="shape"):
            get_engine("analytic").solve_devices(table, [0.0, 0.1],
                                                 DRAIN_VOLTAGE)
