"""Tests for the Circuit container."""

import pytest

from repro.circuit import Circuit, NodeKind
from repro.constants import E_CHARGE
from repro.errors import CircuitError

from ..conftest import build_set_circuit


class TestNodes:
    def test_ground_exists_by_default(self):
        circuit = Circuit("c")
        assert circuit.has_node("gnd")
        assert circuit.ground.kind is NodeKind.GROUND

    def test_add_island(self):
        circuit = Circuit("c")
        circuit.add_island("dot")
        assert circuit.node("dot").is_island
        assert circuit.island_count == 1

    def test_add_island_with_offset_charge(self):
        circuit = Circuit("c")
        circuit.add_island("dot", offset_charge=0.25 * E_CHARGE)
        assert circuit.node("dot").offset_charge == pytest.approx(0.25 * E_CHARGE)

    def test_duplicate_node_rejected(self):
        circuit = Circuit("c")
        circuit.add_island("dot")
        with pytest.raises(CircuitError):
            circuit.add_island("dot")

    def test_cannot_re_add_ground(self):
        circuit = Circuit("c")
        with pytest.raises(CircuitError):
            circuit.add_source_node("gnd")

    def test_unknown_node_lookup_raises(self):
        circuit = Circuit("c")
        with pytest.raises(CircuitError, match="unknown node"):
            circuit.node("missing")

    def test_islands_and_sources_partition(self):
        circuit = build_set_circuit()
        island_names = {node.name for node in circuit.islands()}
        source_names = {node.name for node in circuit.source_nodes()}
        assert island_names == {"dot"}
        assert source_names == {"gnd", "drain", "gate"}

    def test_island_indices_are_sequential(self):
        circuit = Circuit("c")
        circuit.add_island("a")
        circuit.add_island("b")
        assert [node.index for node in circuit.islands()] == [0, 1]


class TestElements:
    def test_junction_requires_existing_nodes(self):
        circuit = Circuit("c")
        circuit.add_island("dot")
        with pytest.raises(CircuitError):
            circuit.add_junction("J1", "dot", "missing", 1e-18, 1e6)

    def test_duplicate_element_rejected(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.add_capacitor("C_gate", "gate", "dot", 1e-18)

    def test_voltage_source_creates_node(self):
        circuit = Circuit("c")
        circuit.add_voltage_source("VD", "drain", 0.01)
        assert circuit.node("drain").voltage == pytest.approx(0.01)

    def test_voltage_source_cannot_drive_island(self):
        circuit = Circuit("c")
        circuit.add_island("dot")
        with pytest.raises(CircuitError):
            circuit.add_voltage_source("V1", "dot", 0.01)

    def test_ground_cannot_be_biased(self):
        circuit = Circuit("c")
        with pytest.raises(CircuitError):
            circuit.add_voltage_source("V1", "gnd", 0.5)

    def test_charge_trap_must_attach_to_island(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.add_charge_trap("T1", "drain", 0.1 * E_CHARGE, 1e-6, 1e-6)
        trap = circuit.add_charge_trap("T2", "dot", 0.1 * E_CHARGE, 1e-6, 1e-6)
        assert trap in circuit.charge_traps()

    def test_element_classification(self):
        circuit = build_set_circuit()
        assert len(circuit.junctions()) == 2
        assert len(circuit.capacitors()) == 1
        assert len(circuit.voltage_sources()) == 2
        assert len(circuit.capacitive_elements()) == 3
        assert len(circuit) == 5

    def test_unknown_element_lookup_raises(self):
        circuit = Circuit("c")
        with pytest.raises(CircuitError, match="unknown element"):
            circuit.element("missing")


class TestVoltageUpdates:
    def test_set_source_voltage_by_element_name(self):
        circuit = build_set_circuit()
        circuit.set_source_voltage("VG", 0.123)
        assert circuit.node("gate").voltage == pytest.approx(0.123)
        assert circuit.element("VG").voltage == pytest.approx(0.123)

    def test_set_source_voltage_by_node_name(self):
        circuit = build_set_circuit()
        circuit.set_source_voltage("drain", 0.05)
        assert circuit.node("drain").voltage == pytest.approx(0.05)
        assert circuit.element("VD").voltage == pytest.approx(0.05)

    def test_cannot_bias_ground(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.set_source_voltage("gnd", 0.1)

    def test_cannot_sweep_an_island(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.set_source_voltage("dot", 0.1)

    def test_source_node_resolves_without_biasing(self):
        circuit = build_set_circuit()
        version = circuit.bias_version
        assert circuit.source_node("VG") == "gate"
        assert circuit.source_node("drain", 0.05) == "drain"
        assert circuit.source_node("gnd") == "gnd"
        assert circuit.bias_version == version
        for name, voltage in (("gnd", 0.1), ("dot", 0.0), ("nowhere", 0.0)):
            with pytest.raises(CircuitError):
                circuit.source_node(name, voltage)


class TestOffsetCharges:
    def test_set_offset_charge(self):
        circuit = build_set_circuit()
        circuit.set_offset_charge("dot", 0.3 * E_CHARGE)
        assert circuit.offset_charges()["dot"] == pytest.approx(0.3 * E_CHARGE)

    def test_set_offset_charge_in_e(self):
        circuit = build_set_circuit()
        circuit.set_offset_charge_in_e("dot", -0.25)
        assert circuit.node("dot").offset_charge == pytest.approx(-0.25 * E_CHARGE)

    def test_offset_charge_rejected_on_source_node(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.set_offset_charge("drain", 0.1 * E_CHARGE)


class TestInspection:
    def test_total_capacitance(self):
        circuit = build_set_circuit()
        assert circuit.total_capacitance("dot") == pytest.approx(4e-18)

    def test_total_capacitance_requires_island(self):
        circuit = build_set_circuit()
        with pytest.raises(CircuitError):
            circuit.total_capacitance("drain")

    def test_elements_at_node(self):
        circuit = build_set_circuit()
        names = {element.name for element in circuit.elements_at("dot")}
        assert names == {"J_drain", "J_source", "C_gate"}

    def test_source_voltages_includes_ground(self):
        circuit = build_set_circuit(drain_voltage=0.02, gate_voltage=0.01)
        voltages = circuit.source_voltages()
        assert voltages["gnd"] == 0.0
        assert voltages["drain"] == pytest.approx(0.02)
        assert voltages["gate"] == pytest.approx(0.01)

    def test_copy_is_independent(self):
        original = build_set_circuit(drain_voltage=0.02)
        clone = original.copy()
        clone.set_source_voltage("VD", 0.1)
        clone.set_offset_charge("dot", 0.4 * E_CHARGE)
        assert original.node("drain").voltage == pytest.approx(0.02)
        assert original.node("dot").offset_charge == 0.0
        assert len(clone) == len(original)

    def test_copy_preserves_traps(self):
        circuit = build_set_circuit()
        circuit.add_charge_trap("T1", "dot", 0.1 * E_CHARGE, 1e-6, 2e-6)
        clone = circuit.copy()
        assert len(clone.charge_traps()) == 1
        assert clone.charge_traps()[0].emission_time == pytest.approx(2e-6)
