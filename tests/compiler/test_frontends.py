"""Frontend auto-detection: every workload shape, ambiguity, errors."""

import pytest

from _helpers import cube_from_literals

import repro
from repro.boolean.bdd import Bdd
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import MultiTruthTable, TruthTable
from repro.compiler import (
    WorkloadError,
    as_truth_table,
    detect_workload,
)
from repro.compiler.frontends import expression_to_truth_table
from repro.core.circuit import QuantumCircuit
from repro.pipeline import FlowState
from repro.synthesis.reversible import ReversibleCircuit


class TestShapeDetection:
    def test_truth_table(self, paper_f4):
        workload = detect_workload(paper_f4)
        assert workload.kind == "truth_table"
        assert workload.state.function is paper_f4
        assert workload.synthesis == "esop"
        assert workload.needs_synthesis

    def test_permutation(self, paper_pi):
        workload = detect_workload(paper_pi)
        assert workload.kind == "permutation"
        assert workload.state.function is paper_pi
        assert workload.synthesis == "tbs"

    def test_reversible_multi_truth_table(self, paper_pi):
        tables = MultiTruthTable(
            [
                TruthTable.from_function(
                    3, lambda a, b, c, _j=j: bool(
                        (paper_pi(a + 2 * b + 4 * c) >> _j) & 1
                    )
                )
                for j in range(3)
            ]
        )
        workload = detect_workload(tables)
        assert workload.kind == "permutation"
        assert workload.state.function == paper_pi

    def test_predicate(self):
        workload = detect_workload(lambda a, b: a and not b)
        assert workload.kind == "truth_table"
        assert workload.state.function.num_vars == 2

    def test_expression_string(self):
        workload = detect_workload("(a and b) ^ (c and d)")
        assert workload.kind == "truth_table"
        table = workload.state.function
        # variables bind in sorted order: a is bit 0
        expected = TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d)
        )
        assert table.bits == expected.bits

    def test_generator_spec_string_and_dict(self):
        for spec in ("hwb=4", {"hwb": 4}):
            workload = detect_workload(spec)
            assert workload.kind == "generator"
            assert workload.needs_synthesis
            assert len(workload.prelude) == 1
            assert workload.prelude[0].name == "revgen-hwb"

    def test_generator_spec_with_options(self):
        workload = detect_workload("adder=3,const=2")
        assert workload.prelude[0].signature() == (
            "adder", 3, (("constant", 2),)
        )

    def test_esop_cube_list(self):
        cubes = [
            cube_from_literals([(0, True), (1, True)]),
            cube_from_literals([(2, True), (3, True)]),
        ]
        workload = detect_workload(cubes)
        assert workload.kind == "truth_table"
        expected = TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d)
        )
        assert workload.state.function.bits == expected.bits

    def test_bdd_pair(self):
        manager = Bdd(3)
        table = TruthTable.from_values([0, 1, 0, 1, 0, 0, 1, 1])
        node = manager.from_truth_table(table)
        workload = detect_workload((manager, node))
        assert workload.kind == "truth_table"
        assert workload.synthesis == "bdd"
        assert workload.state.function.bits == table.bits

    def test_circuit_passthrough_skips_synthesis(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        workload = detect_workload(circuit)
        assert workload.kind == "circuit"
        assert not workload.needs_synthesis
        assert workload.state.quantum is circuit

    def test_reversible_passthrough(self):
        cascade = ReversibleCircuit(3).toffoli(0, 1, 2)
        workload = detect_workload(cascade)
        assert workload.kind == "reversible"
        assert not workload.needs_synthesis

    def test_flow_state_passthrough(self, paper_pi):
        state = FlowState(function=paper_pi)
        workload = detect_workload(state)
        assert workload.kind == "state"
        assert workload.needs_synthesis
        assert workload.synthesis == "tbs"

    def test_workload_passthrough_is_identity(self, paper_pi):
        workload = detect_workload(paper_pi)
        assert detect_workload(workload) is workload


class TestIntSequences:
    def test_permutation_image(self):
        workload = detect_workload([0, 2, 3, 5, 7, 1, 4, 6])
        assert workload.kind == "permutation"

    def test_value_list(self):
        workload = detect_workload([0, 1, 1, 0, 1, 0, 0, 1])
        assert workload.kind == "truth_table"

    @pytest.mark.parametrize("ambiguous", [[0, 1], [1, 0]])
    def test_ambiguous_sequence_raises_actionable(self, ambiguous):
        with pytest.raises(TypeError) as excinfo:
            detect_workload(ambiguous)
        message = str(excinfo.value)
        assert "ambiguous" in message
        assert "BitPermutation" in message
        assert "TruthTable.from_values" in message

    def test_bad_length_raises_actionable(self):
        with pytest.raises(TypeError, match="power of two"):
            detect_workload([0, 1, 2])

    def test_bad_values_raise_actionable(self):
        with pytest.raises(TypeError, match="neither a permutation"):
            detect_workload([5, 5, 5, 5])


class TestErrors:
    @pytest.mark.parametrize(
        "obj",
        ["x1 &", [0, 0, 1], {"a": 1}, 3.5, "", object(), None],
        ids=["syntax", "short-list", "no-family", "float", "empty-str",
             "object", "none"],
    )
    def test_malformed_input_raises_workload_error(self, obj):
        with pytest.raises(WorkloadError) as excinfo:
            repro.compile(obj, cache=None)
        assert isinstance(excinfo.value, TypeError)
        assert f"{type(obj).__name__!r} object" in str(excinfo.value)

    def test_two_generator_families_rejected(self):
        with pytest.raises(WorkloadError, match="exactly one generator"):
            detect_workload({"hwb": 4, "adder": 3})
        with pytest.raises(WorkloadError, match="exactly one generator"):
            detect_workload("hwb=4,adder=3")

    def test_unsupported_type_lists_shapes(self):
        with pytest.raises(TypeError) as excinfo:
            detect_workload(3.14)
        message = str(excinfo.value)
        assert "supported workload shapes" in message
        assert "BitPermutation" in message

    def test_irreversible_multi_truth_table(self):
        tables = MultiTruthTable([TruthTable(2), TruthTable(2)])
        with pytest.raises(TypeError, match="not reversible"):
            detect_workload(tables)

    def test_dict_without_family_key(self):
        with pytest.raises(TypeError, match="generator family"):
            detect_workload({"wat": 4})

    def test_garbage_string(self):
        with pytest.raises(TypeError, match="neither a generator spec"):
            detect_workload("totally: not! valid?")

    def test_expression_without_variables(self):
        with pytest.raises(TypeError, match="no free variables"):
            detect_workload("1")

    def test_expression_strings_are_not_evaluated_as_code(self):
        # string workloads go through the symbolic AST evaluator, so
        # call syntax (the code-execution vector) is rejected outright
        with pytest.raises(TypeError, match="Boolean fragment"):
            detect_workload("a and ().__class__.__base__")
        with pytest.raises(TypeError, match="Boolean fragment"):
            detect_workload("a or print(42)")

    def test_expression_arithmetic_points_to_predicates(self):
        with pytest.raises(TypeError, match="Python predicate"):
            detect_workload("a + b == 1")

    def test_class_workload_rejected(self):
        with pytest.raises(TypeError, match="not an\\s+instance"):
            detect_workload(TruthTable)


class TestHelpers:
    def test_expression_to_truth_table_sorted_binding(self):
        table = expression_to_truth_table("b and not a")
        expected = TruthTable.from_function(
            2, lambda a, b: b and not a
        )
        assert table.bits == expected.bits

    def test_as_truth_table_shapes(self, paper_f4):
        assert as_truth_table(paper_f4) is paper_f4
        assert (
            as_truth_table(lambda a, b: a ^ b).bits
            == TruthTable.from_function(2, lambda a, b: a ^ b).bits
        )
        assert (
            as_truth_table("a ^ b").bits
            == TruthTable.from_function(2, lambda a, b: a ^ b).bits
        )

    def test_as_truth_table_rejects_circuits(self):
        with pytest.raises(TypeError, match="Boolean function"):
            as_truth_table(QuantumCircuit(1).h(0))

    def test_as_truth_table_widens_derived_tables(self):
        # positional workloads honor num_vars by padding don't-cares
        table = as_truth_table("a and b", num_vars=3)
        assert table.num_vars == 3
        expected = TruthTable.from_function(
            3, lambda a, b, _c: a and b
        )
        assert table.bits == expected.bits
        cubes = [cube_from_literals([(0, True)])]
        assert as_truth_table(cubes, num_vars=2).num_vars == 2

    def test_as_truth_table_num_vars_mismatch_raises(self, paper_f4):
        with pytest.raises(TypeError, match="num_vars=2"):
            as_truth_table(paper_f4, num_vars=2)
        with pytest.raises(TypeError, match="num_vars=1"):
            as_truth_table("a and b", num_vars=1)

    def test_solve_grover_honors_num_vars(self):
        from repro.algorithms.grover import solve_grover

        result = solve_grover("a and b", num_vars=3, seed=3)
        assert result.circuit.num_qubits == 3
        assert result.is_solution


class TestQasmWorkloads:
    QASM = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0], q[1];\n"
    )

    def test_source_text_detected_as_circuit(self):
        workload = detect_workload(self.QASM)
        assert workload.kind == "circuit"
        assert not workload.needs_synthesis
        assert len(workload.state.quantum.gates) == 2

    def test_leading_comments_and_blank_lines_allowed(self):
        commented = "// generated by a tool\n\n" + self.QASM
        workload = detect_workload(commented)
        assert workload.kind == "circuit"
        assert len(workload.state.quantum.gates) == 2

    def test_openqasm3_text_rejected_with_hint(self):
        text = "OPENQASM 3.0;\nqubit[2] q;\n"
        with pytest.raises(TypeError, match="OpenQASM 3 import"):
            detect_workload(text)

    def test_openqasm3_behind_comment_rejected_with_hint(self):
        text = "// v3 header below\nOPENQASM 3.0;\nqubit[2] q;\n"
        with pytest.raises(TypeError, match="OpenQASM 3 import"):
            detect_workload(text)

    def test_path_workload_resolves_by_extension(self, tmp_path):
        path = tmp_path / "circ.qasm"
        path.write_text(self.QASM)
        workload = detect_workload(path)
        assert workload.kind == "circuit"
        assert "circ.qasm" in workload.description

    def test_path_without_importer_lists_parseable(self, tmp_path):
        path = tmp_path / "circ.py"
        path.write_text("# not importable\n")
        with pytest.raises(TypeError, match="no importer"):
            detect_workload(path)

    def test_unknown_extension_lists_known(self, tmp_path):
        path = tmp_path / "circ.v"
        path.write_text("module m; endmodule\n")
        with pytest.raises(TypeError, match="known\\s+extensions"):
            detect_workload(path)
