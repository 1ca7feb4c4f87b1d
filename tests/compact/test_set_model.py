"""Tests for the compact SET models (analytic two-state and master-equation-backed)."""

import numpy as np
import pytest

from repro.compact import AnalyticSETModel, MasterEquationSETModel, SETDevice, TunableSETModel
from repro.constants import BOLTZMANN, E_CHARGE
from repro.errors import CircuitError

#: Documented array-vs-scalar bound of ``drain_current`` where
#: ``e |V_ds| >= 3 k_B T``.
ARRAY_MAX_ULP = 4096


def random_devices(rng, count):
    """Array parameters of ``count`` random (asymmetric, offset) devices."""
    def log_uniform(low, high):
        return np.exp(rng.uniform(np.log(low), np.log(high), count))

    return dict(drain_capacitance=log_uniform(1e-19, 5e-18),
                source_capacitance=log_uniform(1e-19, 5e-18),
                gate_capacitance=log_uniform(2e-19, 1e-17),
                drain_resistance=log_uniform(1e5, 1e8),
                source_resistance=log_uniform(1e5, 1e8),
                background_charge=rng.uniform(-1.0, 1.0, count) * E_CHARGE,
                temperature=rng.choice([0.0, 0.1, 1.0, 4.0, 30.0, 300.0],
                                       count))


class TestAnalyticModel:
    def test_gate_period(self):
        model = AnalyticSETModel(gate_capacitance=2e-18)
        assert model.gate_period == pytest.approx(E_CHARGE / 2e-18)

    def test_blockade_at_small_bias_and_low_temperature(self):
        model = AnalyticSETModel(temperature=0.1)
        assert abs(model.drain_current(0.005, 0.0)) < 1e-16

    def test_conduction_above_threshold(self):
        model = AnalyticSETModel(temperature=0.1)
        assert model.drain_current(0.06, 0.0) > 1e-10

    def test_current_is_odd_in_bias_at_symmetric_operating_point(self):
        model = AnalyticSETModel(temperature=1.0)
        forward = model.drain_current(0.05, 0.02)
        backward = model.drain_current(-0.05, -0.02)
        assert forward == pytest.approx(-backward, rel=1e-6)

    def test_periodicity_in_gate_voltage(self):
        model = AnalyticSETModel(temperature=2.0)
        period = model.gate_period
        for gate in (0.013, 0.031):
            assert model.drain_current(0.01, gate) == pytest.approx(
                model.drain_current(0.01, gate + period), rel=1e-6)

    def test_background_charge_shifts_the_phase(self):
        clean = AnalyticSETModel(temperature=2.0)
        shifted = AnalyticSETModel(temperature=2.0,
                                   background_charge=0.5 * E_CHARGE)
        gate = 0.25 * clean.gate_period
        # Half an electron of offset is equivalent to half a period of gate.
        assert shifted.drain_current(0.01, gate) == pytest.approx(
            clean.drain_current(0.01, gate + 0.5 * clean.gate_period), rel=1e-6)

    def test_agrees_with_master_equation_model(self):
        analytic = AnalyticSETModel(temperature=2.0)
        exact = MasterEquationSETModel(temperature=2.0)
        gates = np.linspace(0.0, 0.16, 9)
        for gate in gates:
            a = analytic.drain_current(0.005, gate)
            b = exact.drain_current(0.005, gate)
            assert a == pytest.approx(b, rel=0.05, abs=1e-13)

    def test_conductance_is_positive_when_conducting(self):
        model = AnalyticSETModel(temperature=1.0)
        assert model.conductance(0.05, 0.04) > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(CircuitError):
            AnalyticSETModel(gate_capacitance=0.0)
        with pytest.raises(CircuitError):
            AnalyticSETModel(temperature=-1.0)


class TestMasterEquationModel:
    def test_cache_returns_identical_values(self):
        model = MasterEquationSETModel(temperature=1.0)
        first = model.drain_current(0.05, 0.04)
        second = model.drain_current(0.05, 0.04)
        assert first == second
        assert len(model._cache) == 1

    def test_clear_cache(self):
        model = MasterEquationSETModel(temperature=1.0)
        model.drain_current(0.05, 0.04)
        model.clear_cache()
        assert len(model._cache) == 0

    def test_source_voltage_offsets_the_bias(self):
        model = MasterEquationSETModel(temperature=1.0)
        differential = model.drain_current(0.05, 0.04, source_voltage=0.0)
        shifted = model.drain_current(0.10, 0.09, source_voltage=0.05)
        assert shifted == pytest.approx(differential, rel=0.05)


class TestTunableModel:
    def test_background_charge_is_mutable(self):
        model = TunableSETModel(temperature=2.0)
        before = model.drain_current(0.01, 0.02)
        model.background_charge = 0.5 * E_CHARGE
        after = model.drain_current(0.01, 0.02)
        assert before != after
        assert model.background_charge == pytest.approx(0.5 * E_CHARGE)

    def test_gate_capacitance_is_mutable(self):
        model = TunableSETModel()
        original_period = model.gate_period
        model.gate_capacitance = 1e-18
        assert model.gate_period == pytest.approx(E_CHARGE / 1e-18)
        assert model.gate_period != original_period

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CircuitError):
            TunableSETModel().set_parameter("colour", 1.0)

    def test_parameter_passthrough(self):
        model = TunableSETModel(drain_resistance=5e7)
        assert model.drain_resistance == pytest.approx(5e7)


class TestSETDeviceWrapper:
    def test_terminal_currents_conserve_charge(self):
        device = SETDevice("X1", "d", "g", "s", AnalyticSETModel(temperature=1.0))
        currents = device.terminal_currents({"d": 0.05, "g": 0.04, "s": 0.0})
        assert currents["d"] + currents["s"] == pytest.approx(0.0)
        assert currents["g"] == 0.0


class TestVectorizedAnalyticModel:
    """The array path must replicate the scalar branch structure element-wise."""

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 1.0, 30.0])
    def test_array_matches_scalar_elementwise(self, temperature):
        model = AnalyticSETModel(temperature=temperature)
        drains = np.linspace(-0.08, 0.08, 23)
        gates = np.linspace(-0.05, 0.21, 17)
        vectorized = model.drain_current(drains[:, None], gates[None, :])
        scalar = np.array([[model.drain_current(float(vd), float(vg))
                            for vg in gates] for vd in drains])
        scale = np.abs(scalar).max()
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-12,
                                   atol=1e-12 * max(scale, 1e-30))

    def test_scalar_inputs_still_return_floats(self):
        model = AnalyticSETModel(temperature=1.0)
        result = model.drain_current(0.05, 0.02)
        assert isinstance(result, float)

    def test_map_shape_and_orientation(self):
        model = AnalyticSETModel(temperature=1.0)
        drains = np.linspace(0.01, 0.05, 3)
        gates = np.linspace(0.0, 0.08, 5)
        grid = model.drain_current_map(drains, gates)
        assert grid.shape == (3, 5)
        assert grid[2, 1] == pytest.approx(
            model.drain_current(float(drains[2]), float(gates[1])),
            rel=1e-12, abs=1e-30)

    def test_source_voltage_broadcasts(self):
        model = AnalyticSETModel(temperature=1.0)
        drains = np.array([0.02, 0.04])
        lifted = model.drain_current(drains, 0.01, 0.005)
        for vd, value in zip(drains, lifted):
            assert value == pytest.approx(
                model.drain_current(float(vd), 0.01, 0.005),
                rel=1e-12, abs=1e-30)

    def test_zero_temperature_absorbing_branch(self):
        # Deep blockade at T = 0 exercises the infinite-weight branch.
        model = AnalyticSETModel(temperature=0.0)
        drains = np.linspace(-0.02, 0.02, 9)
        vectorized = model.drain_current(drains, 0.0)
        scalar = np.array([model.drain_current(float(vd), 0.0)
                           for vd in drains])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_tunable_model_delegates_arrays(self):
        model = TunableSETModel(temperature=1.0)
        drains = np.linspace(0.01, 0.05, 4)
        gates = np.linspace(0.0, 0.08, 3)
        grid = model.drain_current_map(drains, gates)
        assert grid.shape == (4, 3)


class TestBatchedAnalyticModel:
    """Array-valued parameters: one model instance per batch of devices."""

    def scalar_twins(self, parameters, drains, gates):
        return np.array([
            AnalyticSETModel(**{name: float(values[row])
                                for name, values in parameters.items()}
                             ).drain_current(float(drains[row]),
                                             float(gates[row]))
            for row in range(len(drains))])

    def test_batch_matches_per_device_models_within_the_ulp_contract(self):
        rng = np.random.default_rng(17)
        parameters = random_devices(rng, 3000)
        drains = rng.uniform(-0.1, 0.1, 3000)
        gates = rng.uniform(-0.3, 0.3, 3000)
        batched = AnalyticSETModel(**parameters).drain_current(drains, gates)
        scalar = self.scalar_twins(parameters, drains, gates)
        temperature = parameters["temperature"]
        biased = E_CHARGE * np.abs(drains) >= 3.0 * BOLTZMANN * temperature
        np.testing.assert_array_max_ulp(batched[biased], scalar[biased],
                                        maxulp=ARRAY_MAX_ULP)
        frozen = temperature == 0.0
        np.testing.assert_array_equal(batched[frozen], scalar[frozen])

    def test_scalar_voltages_on_a_batched_model_return_an_array(self):
        model = AnalyticSETModel(temperature=np.array([0.5, 2.0, 20.0]))
        assert model.batched
        currents = model.drain_current(0.005, 0.0)
        assert currents.shape == (3,)
        assert currents[2] > currents[0]   # thermal activation
        assert not AnalyticSETModel().batched

    def test_parameters_broadcast_against_voltage_grids(self):
        gates = np.linspace(0.0, 0.1, 4)
        model = AnalyticSETModel(
            gate_capacitance=np.array([[1e-18], [2e-18]]), temperature=1.0)
        grid = model.drain_current(0.02, gates[None, :])
        assert grid.shape == (2, 4)
        reference = AnalyticSETModel(gate_capacitance=2e-18,
                                     temperature=1.0).drain_current(
                                         0.02, gates)
        np.testing.assert_array_equal(grid[1], reference)

    @pytest.mark.parametrize("field, bad", [
        ("source_capacitance", np.array([1e-18, 0.0])),
        ("drain_resistance", np.array([1e6, -1.0])),
        ("temperature", np.array([1.0, -0.1])),
    ])
    def test_validation_is_element_wise(self, field, bad):
        with pytest.raises(CircuitError):
            AnalyticSETModel(**{field: bad})

    def test_tunable_model_still_rebuilds_from_scalar_parameters(self):
        model = TunableSETModel(temperature=1.0)
        model.background_charge = 0.1 * E_CHARGE
        assert isinstance(model.drain_current(0.02, 0.01), float)


class TestMasterEquationModelMap:
    def test_map_matches_unquantised_point_solves(self):
        model = MasterEquationSETModel(temperature=2.0)
        drains = np.linspace(0.01, 0.05, 3)
        gates = np.linspace(0.0, 0.08, 3)
        grid = model.drain_current_map(drains, gates)
        assert grid.shape == (3, 3)
        # The batched sweep skips the scalar path's voltage quantisation, so
        # compare against exact solves at the raw grid voltages.
        for row, vd in enumerate(drains):
            for column, vg in enumerate(gates):
                reference = model._solve(float(vd), float(vg), 0.0)
                assert grid[row, column] == pytest.approx(reference, rel=1e-9)
