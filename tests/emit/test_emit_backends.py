"""Unit tests for the individual emission backends."""

import math

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
        from repro.emit.qasm2 import from_qasm

        circ = from_qasm(
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg r[2];\n"
            "cx r[0], r[1];\n"
            "x r[1];\n"
        )
        assert circ.num_qubits == 2
        assert circ.gates[0].controls == (0,)
        assert circ.gates[0].targets == (1,)
        assert circ.gates[1].targets == (1,)

    def test_multiple_registers_flatten_in_order(self):
        from repro.emit.qasm2 import from_qasm

        circ = from_qasm(
            "OPENQASM 2.0;\n"
            "qreg a[2];\n"
            "qreg b[2];\n"
            "creg m[1];\n"
            "cx a[1], b[0];\n"
            "measure b[1] -> m[0];\n"
        )
        assert circ.num_qubits == 4 and circ.num_clbits == 1
        assert circ.gates[0].controls == (1,)
        assert circ.gates[0].targets == (2,)
        assert circ.gates[1].targets == (3,)
        assert circ.gates[1].cbits == (0,)

    def test_undeclared_register_raises(self):
        from repro.emit.qasm2 import QasmError, from_qasm

        with pytest.raises(QasmError, match="unknown quantum register"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nx r[0];\n")

    def test_out_of_range_index_raises(self):
        from repro.emit.qasm2 import QasmError, from_qasm

        with pytest.raises(QasmError, match="outside the register"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[2];\n")

    def test_openqasm3_header_rejected_by_the_parser_itself(self):
        # the version hint comes from from_qasm, so every entry point
        # (registry parse, CLI, frontends) reports the same message
        from repro.emit.qasm2 import QasmError

        with pytest.raises(QasmError, match="OpenQASM 3 import"):
            emit.parse("OPENQASM 3.0;\nqubit[2] q;\n", "qasm2")

    def test_core_package_reexports_do_not_warn(self):
        import warnings

        from repro.emit import qasm2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core import from_qasm, to_qasm
        assert to_qasm is qasm2.to_qasm
        assert from_qasm is qasm2.from_qasm


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


class TestProjectQBackend:
    def test_matches_legacy_result_method(self, paper_pi):
        import repro

        result = repro.compile(paper_pi, target="projectq", cache=None)
        assert emit.emit(result.circuit, "projectq") == result.to_projectq()

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
        with pytest.raises(emit.EmitterError, match="no options"):
            emit.emit(QuantumCircuit(1), fmt, bogus=1)
