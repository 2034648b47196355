"""Unit tests for OpenQASM 2.0 export/import (the ``qasm2`` emitter)."""

import math
import re

import pytest

from _dense_reference import circuits_equivalent

from repro.core.circuit import QuantumCircuit
from repro import emit
from repro.emit.qasm2 import QasmError


class TestExport:
    def test_header(self):
        text = emit.emit(QuantumCircuit(3), "qasm2")
        assert text.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in text
        assert "qreg q[3];" in text

    def test_basic_gates(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).t(1).tdg(0)
        text = emit.emit(circ, "qasm2")
        assert "h q[0];" in text
        assert "cx q[0], q[1];" in text
        assert "t q[1];" in text
        assert "tdg q[0];" in text

    def test_measure_and_creg(self):
        circ = QuantumCircuit(1, 1).measure(0, 0)
        text = emit.emit(circ, "qasm2")
        assert "creg c[1];" in text
        assert "measure q[0] -> c[0];" in text

    def test_rotation_pi_formatting(self):
        circ = QuantumCircuit(1).rz(math.pi / 4, 0)
        assert "rz(pi/4) q[0];" in emit.emit(circ, "qasm2")

    def test_negative_angle_formatting(self):
        circ = QuantumCircuit(1).rz(-math.pi / 2, 0)
        assert "rz(-pi/2) q[0];" in emit.emit(circ, "qasm2")

    def test_ccz_expanded(self):
        circ = QuantumCircuit(3).ccz(0, 1, 2)
        text = emit.emit(circ, "qasm2")
        assert "ccx q[0], q[1], q[2];" in text
        assert text.count("h q[2];") == 2

    def test_mcx_rejected(self):
        circ = QuantumCircuit(4).mcx([0, 1, 2], 3)
        with pytest.raises(QasmError):
            emit.emit(circ, "qasm2")


class TestImportRoundTrip:
    def test_round_trip_preserves_semantics(self):
        circ = QuantumCircuit(3)
        circ.h(0).cx(0, 1).t(2).swap(0, 2).sdg(1).rz(0.7, 0)
        circ.ccx(0, 1, 2).x(1).p(math.pi / 8, 2)
        parsed = emit.parse(emit.emit(circ, "qasm2"), "qasm2")
        assert parsed.num_qubits == 3
        assert circuits_equivalent(circ, parsed)

    def test_round_trip_with_measurements(self):
        circ = QuantumCircuit(2, 2).h(0).cx(0, 1)
        circ.measure(0, 0).measure(1, 1)
        parsed = emit.parse(emit.emit(circ, "qasm2"), "qasm2")
        assert parsed.num_clbits == 2
        assert sum(1 for g in parsed if g.is_measurement) == 2

    def test_comments_and_blank_lines_ignored(self):
        text = """OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[1];

x q[0]; // trailing comment
"""
        parsed = emit.parse(text, "qasm2")
        assert [g.name for g in parsed] == ["x"]

    def test_angle_expressions(self):
        parsed = emit.parse(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
            "rz(3*pi/4) q[0];\n",
            "qasm2",
        )
        assert parsed.gates[0].params[0] == pytest.approx(3 * math.pi / 4)

    def test_unknown_gate_raises(self):
        with pytest.raises(QasmError):
            emit.parse(
                'OPENQASM 2.0;\nqreg q[1];\nfancy q[0];\n', "qasm2"
            )

    def test_malformed_angle_rejected(self):
        with pytest.raises(QasmError):
            emit.parse(
                'OPENQASM 2.0;\nqreg q[1];\nrz(__import__) q[0];\n', "qasm2"
            )

    @pytest.mark.parametrize(
        "line",
        [
            "cx q[0];",  # missing target
            "h q[0],q[1];",  # one-qubit gate on two wires
            "rz q[0];",  # rotation without its angle
            "h(0.5) q[0];",  # fixed gate with a parameter
            "rz(pi,) q[0];",  # empty second parameter
            "h q;",  # register broadcast
            "h q[0] junk;",  # operand text left over
            "reset q;",  # used to escape as IndexError
            "cx q[0],q[0];",  # used to escape as ValueError
            "cswap q[0],q[1];",  # two-wire target needs both wires
            "barrier q[0],q[0];",  # used to escape as ValueError
        ],
    )
    def test_malformed_gate_line_raises_naming_it(self, line):
        with pytest.raises(QasmError, match=re.escape(repr(line))):
            emit.parse(f"OPENQASM 2.0;\nqreg q[2];\n{line}\n", "qasm2")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("foo q[0];", "unsupported gate 'foo'"),
            ("x q[5];", "quantum index q[5] outside the register's size 2"),
        ],
    )
    def test_errors_name_the_line_number_and_text(self, line, message):
        text = f"OPENQASM 2.0;\nqreg q[2];\n{line}\n"
        expected = f"line 3: {message}: {line!r}"
        with pytest.raises(QasmError, match=f"^{re.escape(expected)}$"):
            emit.parse(text, "qasm2")

    def test_barrier_round_trip(self):
        circ = QuantumCircuit(2).h(0).barrier(0, 1).h(1)
        parsed = emit.parse(emit.emit(circ, "qasm2"), "qasm2")
        assert [g.name for g in parsed] == ["h", "barrier", "h"]
