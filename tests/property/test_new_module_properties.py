"""Property-based tests for routing, templates and arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import constant_adder, cuccaro_adder, modular_constant_adder
from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import CouplingMap, route_circuit, verify_routing
from repro.optimization.templates import template_optimize
from repro.synthesis.reversible import MctGate, ReversibleCircuit


# ----------------------------------------------------------------------
# routing: two-qubit legality + semantics on random circuits
# ----------------------------------------------------------------------
def _circuit_from_plan(num_qubits, plan):
    circuit = QuantumCircuit(num_qubits)
    for kind, a, b in plan:
        if kind == "cx" and a != b:
            circuit.cx(a, b)
        elif kind == "cz" and a != b:
            circuit.cz(a, b)
        elif kind not in ("cx", "cz"):
            getattr(circuit, kind)(a)
    return circuit


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["h", "t", "x", "cx", "cz"]),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        max_size=15,
    ),
    st.sampled_from(["line", "ring", "qx2"]),
)
@settings(max_examples=30, deadline=None)
def test_routing_properties(plan, topology):
    circuit = _circuit_from_plan(4, plan)
    coupling = {
        "line": CouplingMap.line(5),
        "ring": CouplingMap.ring(5),
        "qx2": CouplingMap.ibm_qx2(),
    }[topology]
    result = route_circuit(circuit, coupling)
    for gate in result.circuit.gates:
        if gate.is_unitary and gate.num_qubits == 2:
            assert coupling.connected(*gate.qubits)
    assert verify_routing(circuit, result)


# ----------------------------------------------------------------------
# template optimization: never breaks semantics, never grows
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.integers(0, 3), unique=True, max_size=3),
            st.randoms(use_true_random=False),
        ),
        max_size=14,
    )
)
@settings(max_examples=40, deadline=None)
def test_template_optimize_properties(gate_plan):
    circuit = ReversibleCircuit(4)
    for target, controls, rnd in gate_plan:
        controls = tuple(c for c in controls if c != target)
        polarity = tuple(rnd.random() < 0.6 for _ in controls)
        circuit.append(MctGate(target, controls, polarity))
    optimized = template_optimize(circuit)
    assert optimized.permutation() == circuit.permutation()
    assert len(optimized) <= len(circuit)


# ----------------------------------------------------------------------
# arithmetic: adders agree with integer arithmetic
# ----------------------------------------------------------------------
@given(st.integers(1, 3), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_cuccaro_is_integer_addition(num_bits, salt):
    perm = cuccaro_adder(num_bits).permutation()
    mask = (1 << num_bits) - 1
    a = salt % (1 << num_bits)
    for b in range(1 << num_bits):
        out = perm(a | (b << num_bits))
        assert (out >> num_bits) & mask == (a + b) & mask
        assert out & mask == a


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_constant_adder_group_law(num_bits, constant):
    size = 1 << num_bits
    forward = constant_adder(num_bits, constant % size).permutation()
    backward = constant_adder(num_bits, (-constant) % size).permutation()
    assert forward.compose(backward).cycles() == []


@given(st.integers(2, 4), st.integers(1, 15), st.integers(0, 20))
@settings(max_examples=25, deadline=None)
def test_modular_adder_in_range(num_bits, modulus, constant):
    modulus = modulus % ((1 << num_bits)) or 1
    perm = modular_constant_adder(
        num_bits, constant % modulus, modulus
    ).permutation()
    for x in range(modulus):
        out = perm(x)
        assert out & ((1 << num_bits) - 1) == (x + constant) % modulus
        assert (out >> num_bits) & 1 == 0
