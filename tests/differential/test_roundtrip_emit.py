"""Property-based round-trip harness for the emitter subsystem.

The round-trip soundness property: for any circuit the compiler can
produce, ``emit(qasm2)`` → ``parse`` → ``emit(qasm2)`` is a fixed
point — the text emitted from the re-imported circuit is byte-equal
to the first emission, and the re-imported gate list matches the
original.  Runs under the same Hypothesis profiles (``dev``/``ci``)
as the differential compile harness.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import emit
from repro.boolean.permutation import BitPermutation
from repro.core.circuit import QuantumCircuit

#: Clifford+T vocabulary: (name, qubits used, parametric).
_CLIFFORD_T_GATES = (
    ("h", 1),
    ("x", 1),
    ("y", 1),
    ("z", 1),
    ("s", 1),
    ("sdg", 1),
    ("t", 1),
    ("tdg", 1),
    ("cx", 2),
    ("cz", 2),
    ("swap", 2),
)

_ANGLES = tuple(
    sign * num * math.pi / denom
    for sign in (1, -1)
    for num in (1, 3)
    for denom in (2, 4, 8)
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def clifford_t_circuits(draw):
    """Random Clifford+T circuits with a few rotations and measures."""
    num_qubits = draw(st.integers(2, 5))
    circuit = QuantumCircuit(num_qubits, num_qubits, name="prop")
    wires = st.lists(
        st.integers(0, num_qubits - 1),
        min_size=2,
        max_size=2,
        unique=True,
    )
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(("fixed", "rotation")))
        if kind == "rotation":
            name = draw(st.sampled_from(("rx", "ry", "rz", "p")))
            angle = draw(st.sampled_from(_ANGLES))
            circuit._add(name, (draw(st.integers(0, num_qubits - 1)),),
                         params=(angle,))
            continue
        name, arity = draw(st.sampled_from(_CLIFFORD_T_GATES))
        if arity == 1:
            circuit._add(name, (draw(st.integers(0, num_qubits - 1)),))
        elif name == "swap":
            circuit._add(name, tuple(draw(wires)))
        else:
            control, target = draw(wires)
            circuit._add(name, (target,), (control,))
    if draw(st.booleans()):
        circuit.measure(0, 0)
    return circuit


@st.composite
def toffoli_circuits(draw):
    """Random Toffoli-level circuits (x / cx / ccx cascades)."""
    num_qubits = draw(st.integers(3, 5))
    circuit = QuantumCircuit(num_qubits, name="toffoli")
    for _ in range(draw(st.integers(1, 16))):
        qubits = draw(
            st.lists(
                st.integers(0, num_qubits - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        name = {1: "x", 2: "cx", 3: "ccx"}[len(qubits)]
        circuit._add(name, (qubits[-1],), tuple(qubits[:-1]))
    return circuit


def assert_fixed_point(circuit):
    """emit(qasm2) → parse → emit(qasm2) must be a fixed point."""
    first = emit.emit(circuit, "qasm2")
    reimported = emit.parse(first, "qasm2")
    assert reimported.gates == circuit.gates
    assert emit.emit(reimported, "qasm2") == first


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(clifford_t_circuits())
def test_clifford_t_emit_parse_emit_fixed_point(circuit):
    assert_fixed_point(circuit)


@given(toffoli_circuits())
def test_toffoli_emit_parse_emit_fixed_point(circuit):
    assert_fixed_point(circuit)


@given(st.permutations(tuple(range(8))))
def test_compiled_permutation_round_trips_as_workload(image):
    """Emitted output re-enters the front door as a QASM workload."""
    from repro.compiler import detect_workload

    reference = repro.compile(
        BitPermutation(list(image)), target="clifford_t", cache=None
    )
    text = reference.emit("qasm2")
    workload = detect_workload(text)
    assert workload.kind == "circuit"
    assert not workload.needs_synthesis
    assert workload.state.quantum.gates == reference.circuit.gates
    assert emit.emit(workload.state.quantum, "qasm2") == text


@given(clifford_t_circuits())
def test_qsharp_round_trip_on_its_vocabulary(circuit):
    """The Q# backend round-trips circuits inside its primitive set."""
    supported = {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "cx", "cz",
                 "swap", "ccx"}
    pruned = QuantumCircuit(circuit.num_qubits, name="qs")
    for gate in circuit.gates:
        if gate.name in supported:
            pruned.append(gate)
    if not pruned.gates:
        return
    code = emit.emit(pruned, "qsharp")
    reimported = emit.parse(code, "qsharp")
    assert reimported.gates == pruned.gates
    assert emit.emit(reimported, "qsharp") == code
