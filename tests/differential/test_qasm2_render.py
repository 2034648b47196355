"""The ``qasm2`` emitter's per-call line memo against rendering every gate anew.

Inside one call, :meth:`repro.emit.qasm2.Qasm2Emitter.emit` renders each
parameter-free, cbit-free gate shape once and reuses the line.  The
text must be byte for byte what rendering every gate on its own gives
(``tests/_qasm_reference.py``): with measures, barriers, resets,
``ccz`` (three lines), gates carrying classical bits, and rotations
whose equal parameters print differently (``1`` against ``1.0``).
"""

import math

from hypothesis import given
from hypothesis import strategies as st

import _qasm_reference as reference
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro import emit

FIXED = ("h", "x", "z", "s", "sdg", "t", "tdg", "cx", "cz", "swap", "ccz",
         "ccx", "barrier", "reset")
PARAMS = (1, 1.0, 0.3, math.pi / 4, -math.pi, 2, 1e-13)


@st.composite
def circuits(draw):
    n = draw(st.integers(3, 4))
    circuit = QuantumCircuit(n, 2, name="render")
    wires = st.permutations(range(n))
    for _ in range(draw(st.integers(0, 30))):
        a, b, c = draw(wires)[:3]
        kind = draw(st.sampled_from(FIXED + ("rz", "p", "cp", "measure",
                                             "x-cbit")))
        if kind in ("h", "x", "z", "s", "sdg", "t", "tdg", "reset"):
            circuit.append(Gate(kind, (a,)))
        elif kind in ("cx", "cz"):
            circuit.append(Gate(kind, (b,), (a,)))
        elif kind == "swap":
            circuit.append(Gate(kind, (a, b)))
        elif kind in ("ccz", "ccx"):
            circuit.append(Gate(kind, (c,), (a, b)))
        elif kind == "barrier":
            circuit.append(Gate(kind, (a, b)[: draw(st.integers(1, 2))]))
        elif kind in ("rz", "p"):
            angle = draw(st.sampled_from(PARAMS))
            circuit.append(Gate(kind, (a,), params=(angle,)))
        elif kind == "cp":
            angle = draw(st.sampled_from(PARAMS))
            circuit.append(Gate(kind, (b,), (a,), (angle,)))
        elif kind == "measure":
            circuit.append(Gate(kind, (a,), cbits=(draw(st.integers(0, 1)),)))
        else:
            circuit.append(Gate("x", (a,), cbits=(draw(st.integers(0, 1)),)))
    return circuit


@given(circuits())
def test_memoized_lines_match_per_gate_rendering(circuit):
    assert emit.emit(circuit, "qasm2") == reference.to_qasm(circuit)


def test_equal_parameters_keep_their_own_spelling():
    circuit = QuantumCircuit(1)
    for angle in (1, 1.0, 1, 1.0):
        circuit.append(Gate("rz", (0,), params=(angle,)))
    lines = emit.emit(circuit, "qasm2").splitlines()[3:]
    assert lines == ["rz(1) q[0];", "rz(1.0) q[0];"] * 2


def test_repeated_shapes_render_once_per_call():
    circuit = QuantumCircuit(3, 1)
    for _ in range(3):
        circuit.h(0).cx(0, 1).ccz(0, 1, 2).measure(2, 0)
    text = emit.emit(circuit, "qasm2")
    assert text == reference.to_qasm(circuit)
    assert text.count("ccx q[0], q[1], q[2];") == 3
