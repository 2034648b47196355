"""Unit tests for Q# code generation."""

import warnings

import pytest

from _dense_reference import circuits_equivalent

from repro.boolean.permutation import BitPermutation
from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary
from repro.frameworks.qsharp import (
    QSharpError,
    _operation_from_circuit as operation_from_circuit,
    gate_to_qsharp,
    hidden_shift_program,
    parse_operation_body,
    permutation_oracle_operation,
    validate_program,
)
from repro.synthesis.decomposition import decomposition_based_synthesis

import numpy as np


class TestGateTranslation:
    def test_primitive_names(self):
        circ = QuantumCircuit(3).h(0).cx(0, 1).t(2).tdg(1).s(0).sdg(2)
        statements = [gate_to_qsharp(g) for g in circ.gates]
        assert statements[0] == "H(qubits[0]);"
        assert statements[1] == "CNOT(qubits[0], qubits[1]);"
        assert statements[2] == "T(qubits[2]);"
        assert statements[3] == "(Adjoint T)(qubits[1]);"
        assert statements[4] == "S(qubits[0]);"
        assert statements[5] == "(Adjoint S)(qubits[2]);"

    def test_ccnot(self):
        circ = QuantumCircuit(3).ccx(0, 1, 2)
        assert gate_to_qsharp(circ.gates[0]) == "CCNOT(qubits[0], qubits[1], qubits[2]);"

    def test_unsupported_gate_raises(self):
        circ = QuantumCircuit(1).rx(0.3, 0)
        with pytest.raises(QSharpError):
            gate_to_qsharp(circ.gates[0])


class TestOperationGeneration:
    def test_structure_mirrors_fig10(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        op = operation_from_circuit("MyOracle", circ)
        assert "operation MyOracle" in op.code
        assert "adjoint auto" in op.code
        assert "controlled auto" in op.code
        assert "controlled adjoint auto" in op.code
        assert validate_program(op.code)

    def test_round_trip_parse(self):
        circ = QuantumCircuit(3)
        circ.h(0).t(1).cx(1, 2).tdg(0).swap(0, 2).s(1).ccx(0, 1, 2)
        op = operation_from_circuit("RT", circ)
        parsed = parse_operation_body(op.code, 3)
        assert circuits_equivalent(parsed, circ)


class TestStrictImport:
    """The importer accepts exactly the lines the Q# emitter writes."""

    @pytest.mark.parametrize(
        "code, line",
        [
            ("}{", 1),
            ("H(q[0]); FOO(q[1]);", 1),
            ("H(qubits[0]); FOO(qubits[1]);", 1),
            ("H(q[0]);", 1),
            ("FOO(qubits[0]);", 1),
            ('Message("x");', 1),
            ("(Adjoint H)(qubits[0]);", 1),
            ("H(qubits[0]);\nX(qubits[1])", 2),
            ("CNOT(qubits[0]);", 1),
            ("H(qubits[0], qubits[1]);", 1),
            ("X(qubits[0]);\nH(qubits[7]);", 2),
            ("CNOT(qubits[1], qubits[1]);", 1),
        ],
        ids=[
            "stray-braces", "two-statements-foreign-register",
            "two-statements-unknown-gate", "foreign-register",
            "unknown-gate", "non-gate-statement", "unknown-adjoint",
            "missing-semicolon", "too-few-qubits", "too-many-qubits",
            "index-out-of-range", "repeated-qubit",
        ],
    )
    def test_rejects_what_the_emitter_never_writes(self, code, line):
        text = code.splitlines()[line - 1].strip()
        with pytest.raises(QSharpError) as info:
            parse_operation_body(code, 2)
        message = str(info.value)
        assert message.startswith(f"line {line}: ")
        assert message.endswith(repr(text))

    def test_empty_generated_operation_parses(self):
        op = operation_from_circuit("Empty", QuantumCircuit(2))
        assert parse_operation_body(op.code, 2).gates == []


class TestPermutationOracleGeneration:
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_code_is_semantically_correct(self, seed):
        """The emitted Q# gate list must realize the permutation on the
        data qubits (re-parsed and simulated natively)."""
        perm = BitPermutation.random(3, seed=seed)
        op = permutation_oracle_operation(perm)
        parsed = parse_operation_body(op.code, op.circuit.num_qubits)
        assert circuits_equivalent(parsed, op.circuit)
        unitary = circuit_unitary(op.circuit)
        for x in range(8):
            column = unitary[:, x]
            idx = int(np.argmax(np.abs(column)))
            assert idx == perm(x)

    def test_clifford_t_only(self, paper_pi):
        op = permutation_oracle_operation(paper_pi)
        assert op.circuit.is_clifford_t()

    def test_custom_synthesis(self, paper_pi):
        from repro.compiler import targets

        op = permutation_oracle_operation(
            paper_pi,
            target=targets.QSHARP.with_(
                synthesis=decomposition_based_synthesis
            ),
        )
        assert validate_program(op.code)

class TestFullProgram:
    def test_hidden_shift_program_custom_synthesis(self, paper_pi):
        import warnings

        from repro.compiler import targets

        target = targets.QSHARP.with_(synthesis=decomposition_based_synthesis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            program = hidden_shift_program(paper_pi, 3, target=target)
        oracle = permutation_oracle_operation(paper_pi, target=target)
        assert validate_program(program)
        assert oracle.code in program

    def test_generation_raises_no_deprecation_warnings(self, paper_pi):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            permutation_oracle_operation(paper_pi)
            hidden_shift_program(paper_pi, 3)

    def test_hidden_shift_program_structure(self, paper_pi):
        program = hidden_shift_program(paper_pi, 3)
        assert validate_program(program)
        assert "operation HiddenShift" in program
        assert "operation PermutationOracle" in program
        assert "operation BentFunctionImpl" in program
        assert "ApplyToEach(H, qubits);" in program
        assert "MResetZ" in program
        assert "(Adjoint PermutationOracle)(ys);" in program

    def test_brace_balance_detector(self):
        assert not validate_program("namespace X { operation Y {")

    @pytest.mark.parametrize(
        "code",
        [
            "} namespace { operation",  # closes below depth 0
            "operation Y { } namespace X { }",  # operation first
            "namespace X { }",  # no operation
        ],
    )
    def test_malformed_structure_rejected(self, code):
        assert not validate_program(code)
