"""Tests for the Newton DC solver."""

import pytest

from repro.compact import AnalyticSETModel, CompactCircuit, DCSolver, MOSFETModel
from repro.errors import SolverError


class TestLinearCircuits:
    def test_resistive_divider(self):
        circuit = CompactCircuit("divider")
        circuit.add_voltage_source("VDD", "vdd", 1.0)
        circuit.add_resistor("R1", "vdd", "mid", 3e3)
        circuit.add_resistor("R2", "mid", "gnd", 1e3)
        solution = DCSolver(circuit).solve()
        assert solution.voltage("mid") == pytest.approx(0.25, rel=1e-6)
        assert solution.residual_norm < 1e-12

    def test_current_source_into_resistor(self):
        circuit = CompactCircuit("cs")
        circuit.add_current_source("I1", "gnd", "out", 1e-6)
        circuit.add_resistor("R1", "out", "gnd", 1e5)
        solution = DCSolver(circuit).solve()
        assert solution.voltage("out") == pytest.approx(0.1, rel=1e-6)

    def test_ladder_network(self):
        circuit = CompactCircuit("ladder")
        circuit.add_voltage_source("V1", "n0", 1.0)
        for index in range(5):
            circuit.add_resistor(f"R{index}", f"n{index}", f"n{index + 1}", 1e3)
        circuit.add_resistor("R_last", "n5", "gnd", 1e3)
        solution = DCSolver(circuit).solve()
        assert solution.voltage("n3") == pytest.approx(0.5, rel=1e-6)

    def test_no_free_nodes(self):
        circuit = CompactCircuit("trivial")
        circuit.add_voltage_source("V1", "a", 1.0)
        circuit.add_resistor("R1", "a", "gnd", 1e3)
        solution = DCSolver(circuit).solve()
        assert solution.voltage("a") == pytest.approx(1.0)
        assert solution.iterations == 0


class TestNonlinearCircuits:
    def test_mosfet_source_follower(self):
        circuit = CompactCircuit("follower")
        circuit.add_voltage_source("VDD", "vdd", 2.0)
        circuit.add_voltage_source("VG", "gate", 1.2)
        circuit.add_mosfet("M1", drain="vdd", gate="gate", source="out",
                           model=MOSFETModel(threshold_voltage=0.4))
        circuit.add_resistor("R_load", "out", "gnd", 1e5)
        solution = DCSolver(circuit).solve()
        # The output sits roughly a threshold below the gate.
        assert 0.3 < solution.voltage("out") < 1.0

    def test_set_with_resistive_load(self):
        circuit = CompactCircuit("set_load")
        circuit.add_voltage_source("VDD", "vdd", 0.2)
        circuit.add_voltage_source("VG", "in", 0.04)
        circuit.add_resistor("R_load", "vdd", "out", 1e7)
        circuit.add_set("X1", drain="out", gate="in", source="gnd",
                        model=AnalyticSETModel(temperature=2.0))
        solution = DCSolver(circuit).solve()
        load_current = (0.2 - solution.voltage("out")) / 1e7
        set_current = circuit.device_current("X1", solution.voltages)
        assert load_current == pytest.approx(set_current, rel=1e-4)

    def test_warm_start_tracks_a_branch(self):
        circuit = CompactCircuit("warm")
        circuit.add_voltage_source("VDD", "vdd", 1.0)
        circuit.add_voltage_source("VB", "bias", 0.45)
        circuit.add_voltage_source("VIN", "in", 0.0)
        circuit.add_mosfet("M1", "vdd", "bias", "out", MOSFETModel(transconductance=2e-5))
        circuit.add_set("X1", "out", "in", "gnd", AnalyticSETModel(temperature=10.0))
        solver = DCSolver(circuit)
        cold = solver.solve()
        warm = solver.solve(initial_guess=cold.voltages)
        assert warm.voltage("out") == pytest.approx(cold.voltage("out"), abs=1e-6)
        assert warm.iterations <= cold.iterations


class TestFailureModes:
    def test_invalid_tolerance_rejected(self):
        with pytest.raises(SolverError):
            DCSolver(CompactCircuit("c"), tolerance=0.0)

    def test_invalid_iteration_budget_rejected(self):
        with pytest.raises(SolverError):
            DCSolver(CompactCircuit("c"), max_iterations=0)

    def test_unknown_node_in_solution_raises(self):
        circuit = CompactCircuit("c")
        circuit.add_voltage_source("V1", "a", 1.0)
        circuit.add_resistor("R1", "a", "gnd", 1e3)
        solution = DCSolver(circuit).solve()
        with pytest.raises(SolverError):
            solution.voltage("nope")
