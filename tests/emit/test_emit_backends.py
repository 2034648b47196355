"""Unit tests for the individual emission backends."""

import math
import random

import pytest

from repro import emit
from repro.core.circuit import QuantumCircuit


@pytest.fixture
def clifford_t_circuit():
    circ = QuantumCircuit(3, 2, name="bench")
    circ.h(0).cx(0, 1).t(2).tdg(1).s(0).sdg(2).swap(0, 2)
    circ.measure(0, 0).measure(1, 1)
    return circ


class TestQasm2ExternalFiles:
    def test_named_register_imports(self):
        circ = emit.parse(
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg r[2];\n"
            "cx r[0], r[1];\n"
            "x r[1];\n",
            "qasm2",
        )
        assert circ.num_qubits == 2
        assert circ.gates[0].controls == (0,)
        assert circ.gates[0].targets == (1,)
        assert circ.gates[1].targets == (1,)

    def test_multiple_registers_flatten_in_order(self):
        circ = emit.parse(
            "OPENQASM 2.0;\n"
            "qreg a[2];\n"
            "qreg b[2];\n"
            "creg m[1];\n"
            "cx a[1], b[0];\n"
            "measure b[1] -> m[0];\n",
            "qasm2",
        )
        assert circ.num_qubits == 4 and circ.num_clbits == 1
        assert circ.gates[0].controls == (1,)
        assert circ.gates[0].targets == (2,)
        assert circ.gates[1].targets == (3,)
        assert circ.gates[1].cbits == (0,)

    def test_undeclared_register_raises(self):
        from repro.emit.qasm2 import QasmError

        with pytest.raises(QasmError, match="unknown quantum register"):
            emit.parse("OPENQASM 2.0;\nqreg q[2];\nx r[0];\n", "qasm2")

    def test_out_of_range_index_raises(self):
        from repro.emit.qasm2 import QasmError

        with pytest.raises(QasmError, match="outside the register"):
            emit.parse("OPENQASM 2.0;\nqreg q[2];\nx q[2];\n", "qasm2")

    def test_openqasm3_header_rejected_by_the_parser_itself(self):
        # the version hint comes from the qasm2 parser, so every entry point
        # (registry parse, CLI, frontends) reports the same message
        from repro.emit.qasm2 import QasmError

        with pytest.raises(QasmError, match="OpenQASM 3 import"):
            emit.parse("OPENQASM 3.0;\nqubit[2] q;\n", "qasm2")


class TestQsharpBackend:
    def test_matches_legacy_generator(self, clifford_t_circuit):
        from repro.frameworks.qsharp import _operation_from_circuit

        circ = QuantumCircuit(2).h(0).cx(0, 1)
        op = _operation_from_circuit("MyOp", circ)
        assert emit.emit(circ, "qsharp", name="MyOp") == op.code

    def test_parse_infers_width(self):
        circ = QuantumCircuit(3).h(0).cx(0, 1).ccx(0, 1, 2)
        code = emit.emit(circ, "qsharp")
        parsed = emit.parse(code, "qsharp")
        assert parsed.num_qubits == 3
        assert parsed.gates == circ.gates

    def test_parse_width_override_for_idle_top_wires(self):
        # inference undercounts when the last wire is idle; the
        # num_qubits= option restores the true register width
        circ = QuantumCircuit(3).h(0).cx(0, 1)
        code = emit.emit(circ, "qsharp")
        assert emit.parse(code, "qsharp").num_qubits == 2
        parsed = emit.parse(code, "qsharp", num_qubits=3)
        assert parsed.num_qubits == 3
        assert parsed.gates == circ.gates


def _fig10_pool():
    """The 57 specs of the ``fig10-verified`` benchmark pool: ``pi``,
    then 8 rounds of seeded permutations of widths 3, 3, 4, 4, 4, 5, 5."""
    pool = [[0, 2, 3, 5, 7, 1, 4, 6]]
    for pool_round in range(8):
        for slot, width in enumerate((3, 3, 4, 4, 4, 5, 5)):
            image = list(range(1 << width))
            random.Random(f"fig10-pool:{pool_round}:{slot}").shuffle(image)
            pool.append(image)
    return pool


def _qsharp_per_gate(circuit):
    """The operation text with every gate rendered on its own."""
    from repro.emit.qsharp import gate_to_qsharp, operation_code

    body = "\n".join(f"            {gate_to_qsharp(g)}" for g in circuit.gates)
    empty = operation_code(QuantumCircuit(circuit.num_qubits))
    return empty.replace("body {\n\n", "body {\n" + body + "\n", 1)


class TestQsharpRendersEachShapeOnce:
    def test_fig10_pool_text_is_the_per_gate_rendering(self):
        import repro

        pool = _fig10_pool()
        assert len(pool) == 57
        for spec in pool:
            result = repro.compile(spec, target="qsharp", cache=None)
            text = result.emit("qsharp")
            assert text == _qsharp_per_gate(result.circuit), spec

    def test_repeated_shapes_and_distinct_wires(self):
        circ = QuantumCircuit(3).h(0).h(0).h(1).cx(0, 1).cx(1, 0).cx(0, 1)
        circ.t(2).tdg(2).t(2)
        text = emit.emit(circ, "qsharp")
        assert text == _qsharp_per_gate(circ)
        assert "CNOT(qubits[1], qubits[0]);" in text


class TestProjectQBackend:
    def test_matches_legacy_result_method(self, paper_pi):
        import repro

        result = repro.compile(paper_pi, target="projectq", cache=None)
        assert emit.emit(result.circuit, "projectq") == result.emit("projectq")

    def test_script_replays(self, clifford_t_circuit):
        text = emit.emit(clifford_t_circuit, "projectq")
        namespace = {}
        exec(text, namespace)  # noqa: S102 - generated by us
        replayed = namespace["eng"].circuit
        expected = [g for g in clifford_t_circuit.gates if g.name != "barrier"]
        assert replayed.gates == expected


class TestNonFiniteAngles:
    """inf/nan angles have no text form any importer reads back."""

    @pytest.mark.parametrize("fmt", ["qasm2", "projectq"])
    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_refused_naming_the_gate_and_the_value(self, fmt, angle):
        circ = QuantumCircuit(2).h(0).rz(angle, 1)
        with pytest.raises(emit.NonFiniteAngleError) as info:
            emit.emit(circ, fmt)
        assert isinstance(info.value, emit.EmitterError)
        assert f"gate 'rz' has the non-finite angle {angle!r}" in str(
            info.value
        )


class TestOptionsValidation:
    @pytest.mark.parametrize("fmt", ["qasm2", "projectq"])
    def test_unexpected_options_rejected(self, fmt):
        with pytest.raises(TypeError, match="bogus"):
            emit.emit(QuantumCircuit(1), fmt, bogus=1)
