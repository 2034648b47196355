"""Unit tests for the ASCII circuit drawer."""

from repro.core.circuit import QuantumCircuit
from repro.core.drawing import draw_circuit


class TestDrawCircuit:
    def test_wire_labels(self):
        text = draw_circuit(QuantumCircuit(3).h(0))
        lines = text.splitlines()
        assert lines[0].startswith("q0:")
        assert lines[2].startswith("q2:")

    def test_gate_symbols(self):
        circ = QuantumCircuit(2).h(0).t(1).tdg(0).s(1)
        text = draw_circuit(circ)
        assert "H" in text
        assert "T+" in text
        assert "S" in text

    def test_cnot_rendering(self):
        text = draw_circuit(QuantumCircuit(2).cx(0, 1))
        lines = text.splitlines()
        assert "*" in lines[0]
        assert "(+)" in lines[1]

    def test_vertical_connector_through_middle_wire(self):
        text = draw_circuit(QuantumCircuit(3).cx(0, 2))
        assert "|" in text.splitlines()[1]

    def test_parallel_gates_share_column(self):
        a = draw_circuit(QuantumCircuit(2).h(0).h(1))
        b = draw_circuit(QuantumCircuit(2).h(0).cx(0, 1).h(1))
        assert len(a.splitlines()[0]) < len(b.splitlines()[0])

    def test_rotation_label(self):
        text = draw_circuit(QuantumCircuit(1).rz(0.5, 0))
        assert "Rz(0.5)" in text

    def test_measure_symbol(self):
        circ = QuantumCircuit(1, 1).measure(0, 0)
        assert "M" in draw_circuit(circ)

    def test_swap_symbol(self):
        text = draw_circuit(QuantumCircuit(2).swap(0, 1))
        assert text.count("x") >= 2

    def test_empty_circuit(self):
        text = draw_circuit(QuantumCircuit(2))
        assert len(text.splitlines()) == 2

