"""Unit tests for ESOP-based synthesis (the Bennett XOR oracle)."""

import random

import pytest

from repro.boolean.truth_table import MultiTruthTable, TruthTable
from repro.synthesis.embedding import verify_bennett_circuit
from repro.synthesis.esop_based import esop_synthesis
from repro.synthesis.reversible import ReversibleCircuit


class TestEsopSynthesis:
    def test_single_output_layout(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        circ = esop_synthesis(table)
        assert circ.num_lines == 3
        assert verify_bennett_circuit(circ, table)

    def test_inputs_never_targets(self):
        table = TruthTable.inner_product(2)
        circ = esop_synthesis(table)
        for gate in circ:
            assert gate.target >= 4

    def test_xor_semantics_on_nonzero_target(self):
        """U|x>|y> = |x>|y ^ f(x)> also for y = 1."""
        table = TruthTable.from_function(2, lambda a, b: a ^ b)
        circ = esop_synthesis(table)
        for x in range(4):
            out = circ.apply(x | (1 << 2))
            assert (out >> 2) & 1 == 1 ^ table(x)

    def test_multi_output(self):
        tables = MultiTruthTable.from_function(3, 2, lambda x: (x * 3) & 3)
        circ = esop_synthesis(tables)
        assert circ.num_lines == 5
        assert verify_bennett_circuit(circ, tables)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_functions(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(m)]
        circ = esop_synthesis(tables)
        assert verify_bennett_circuit(circ, tables)

    def test_constant_one_output(self):
        table = TruthTable.constant(2, True)
        circ = esop_synthesis(table)
        assert verify_bennett_circuit(circ, table)
        # constant realized by an uncontrolled NOT
        assert any(g.num_controls == 0 for g in circ)

    def test_zero_function_no_gates(self):
        circ = esop_synthesis(TruthTable(3))
        assert len(circ) == 0

    def test_gate_count_equals_cube_count(self):
        from repro.boolean.esop import minimize_esop

        table = TruthTable.inner_product(2)
        circ = esop_synthesis(table)
        assert len(circ) == len(minimize_esop(table))

    def test_scales_beyond_simulation(self):
        """Oracle synthesis itself must handle ~16 input variables."""
        table = TruthTable.inner_product(8)  # 16 variables
        circ = esop_synthesis(table, effort="fast")
        assert circ.num_lines == 17
        assert len(circ) == 8  # one cube per x_i y_i pair


class TestVerifyBennettCircuit:
    """The one embedding check ESOP, BDD and LUT synthesis share."""

    def test_refuses_a_cascade_with_too_few_lines(self):
        # 2 inputs + 1 output need 3 lines; the inputs pass through
        # and the missing output line would have read as the constant 0
        assert not verify_bennett_circuit(
            ReversibleCircuit(2), TruthTable(2, 0)
        )

    def test_refuses_a_dirty_ancilla(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        circuit = esop_synthesis(table)
        assert verify_bennett_circuit(circuit, table)
        wide = ReversibleCircuit(circuit.num_lines + 1)
        wide.extend(circuit.gates)
        assert verify_bennett_circuit(wide, table)
        wide.cnot(0, circuit.num_lines)
        assert not verify_bennett_circuit(wide, table)

    def test_refuses_a_wrong_output_or_a_moved_input(self):
        table = TruthTable.from_function(2, lambda a, b: a or b)
        circuit = esop_synthesis(table)
        wrong = circuit.copy().x(2)
        assert not verify_bennett_circuit(wrong, table)
        moved = circuit.copy().cnot(2, 0)
        assert not verify_bennett_circuit(moved, table)
