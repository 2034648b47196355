"""Property-based tests (hypothesis) on core invariants.

These encode the paper's correctness obligations as universally
quantified properties: synthesis realizes its specification, mapping
and optimization preserve semantics, oracles are diagonal, duals
invert, Compute/Uncompute restores state.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _dense_reference import circuits_equivalent
from _spectral_reference import dual_bent, is_bent, walsh_spectrum

from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.cube import esop_to_truth_table
from repro.boolean.esop import exorcism, minimize_esop, minterm_cover, pprm
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary
from repro.optimization.simplify import (
    cancel_adjacent_gates,
    simplify_reversible,
)
from repro.optimization.tpar import tpar_optimize
from repro.synthesis.decomposition import decomposition_based_synthesis
from repro.synthesis.embedding import verify_bennett_circuit
from repro.synthesis.esop_based import esop_synthesis
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.synthesis.transformation import (
    bidirectional_synthesis,
    transformation_based_synthesis,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def truth_tables(max_vars=5):
    return st.integers(1, max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1)
        )
    )


def permutations(max_bits=4):
    return st.integers(1, max_bits).flatmap(
        lambda n: st.permutations(list(range(1 << n))).map(BitPermutation)
    )


def mct_circuits(num_lines=3, max_gates=12):
    gate = st.tuples(
        st.integers(0, num_lines - 1),
        st.lists(
            st.integers(0, num_lines - 1), unique=True, max_size=num_lines - 1
        ),
        st.randoms(),
    ).map(_build_gate)
    return st.lists(gate, max_size=max_gates).map(
        lambda gates: _build_circuit(num_lines, gates)
    )


def _build_gate(args):
    target, controls, rnd = args
    controls = tuple(c for c in controls if c != target)
    polarity = tuple(rnd.random() < 0.7 for _ in controls)
    return MctGate(target, controls, polarity)


def _build_circuit(num_lines, gates):
    circuit = ReversibleCircuit(num_lines)
    circuit.extend(gates)
    return circuit


def clifford_t_circuits(num_qubits=3, max_gates=30):
    def build(choices):
        circuit = QuantumCircuit(num_qubits)
        for kind, a, b in choices:
            if kind == "cx" and a != b:
                circuit.cx(a, b)
            elif kind == "cz" and a != b:
                circuit.cz(a, b)
            elif kind not in ("cx", "cz"):
                getattr(circuit, kind)(a)
        return circuit

    gate = st.tuples(
        st.sampled_from(
            ["h", "x", "z", "s", "sdg", "t", "tdg", "cx", "cz"]
        ),
        st.integers(0, num_qubits - 1),
        st.integers(0, num_qubits - 1),
    )
    return st.lists(gate, max_size=max_gates).map(build)


# ----------------------------------------------------------------------
# ESOP properties
# ----------------------------------------------------------------------
@given(truth_tables())
@settings(max_examples=60, deadline=None)
def test_pprm_cover_exact(table):
    assert esop_to_truth_table(pprm(table), table.num_vars) == table


@given(truth_tables())
@settings(max_examples=40, deadline=None)
def test_minimize_esop_cover_exact(table):
    cubes = minimize_esop(table)
    assert esop_to_truth_table(cubes, table.num_vars) == table


@given(truth_tables(max_vars=4))
@settings(max_examples=40, deadline=None)
def test_exorcism_never_increases_cost(table):
    minterms = minterm_cover(table)
    reduced = exorcism(minterms)
    assert len(reduced) <= len(minterms)
    assert esop_to_truth_table(reduced, table.num_vars) == table


# ----------------------------------------------------------------------
# synthesis properties
# ----------------------------------------------------------------------
@given(permutations())
@settings(max_examples=40, deadline=None)
def test_tbs_realizes_specification(perm):
    assert transformation_based_synthesis(perm).permutation() == perm


@given(permutations())
@settings(max_examples=40, deadline=None)
def test_bidirectional_realizes_specification(perm):
    assert bidirectional_synthesis(perm).permutation() == perm


@given(permutations())
@settings(max_examples=25, deadline=None)
def test_dbs_realizes_specification(perm):
    assert decomposition_based_synthesis(perm).permutation() == perm


@given(truth_tables(max_vars=4))
@settings(max_examples=25, deadline=None)
def test_esop_synthesis_is_bennett_oracle(table):
    circuit = esop_synthesis(table)
    assert verify_bennett_circuit(circuit, table)


@given(mct_circuits())
@settings(max_examples=50, deadline=None)
def test_reversible_dagger_is_inverse(circuit):
    composed = circuit.copy()
    composed.compose(circuit.dagger())
    assert composed.permutation().cycles() == []


@given(mct_circuits())
@settings(max_examples=50, deadline=None)
def test_revsimp_preserves_permutation(circuit):
    simplified = simplify_reversible(circuit)
    assert simplified.permutation() == circuit.permutation()
    assert len(simplified) <= len(circuit)


# ----------------------------------------------------------------------
# spectral properties
# ----------------------------------------------------------------------
@given(truth_tables(max_vars=4))
@settings(max_examples=50, deadline=None)
def test_parseval_identity(table):
    spectrum = walsh_spectrum(table).astype(object)
    assert int(np.sum(spectrum ** 2)) == table.size ** 2


@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1 << n))),
        st.integers(0, (1 << (1 << n)) - 1),
        st.just(n),
    )
))
@settings(max_examples=30, deadline=None)
def test_mm_construction_always_bent(args):
    image, h_bits, n = args
    mm = MaioranaMcFarland(BitPermutation(list(image)), TruthTable(n, h_bits))
    table = mm.truth_table()
    assert is_bent(table)
    assert mm.dual().truth_table() == dual_bent(table)
    assert dual_bent(dual_bent(table)) == table


# ----------------------------------------------------------------------
# quantum circuit properties
# ----------------------------------------------------------------------
@given(clifford_t_circuits())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_cancellation_preserves_unitary(circuit):
    out = cancel_adjacent_gates(circuit)
    assert circuits_equivalent(circuit, out)


@given(clifford_t_circuits())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_tpar_preserves_unitary_and_t(circuit):
    out = tpar_optimize(circuit)
    assert circuits_equivalent(circuit, out)
    assert out.t_count() <= circuit.t_count()


@given(clifford_t_circuits(num_qubits=2, max_gates=15))
@settings(max_examples=30, deadline=None)
def test_circuit_dagger_unitary_inverse(circuit):
    unitary = circuit_unitary(circuit)
    inverse = circuit_unitary(circuit.dagger())
    assert np.allclose(unitary @ inverse, np.eye(4), atol=1e-9)


# ----------------------------------------------------------------------
# algorithm-level property: hidden shift always succeeds
# ----------------------------------------------------------------------
@given(
    st.permutations([0, 1, 2, 3]),
    st.integers(0, 15),
    st.integers(0, 15),
)
@settings(max_examples=25, deadline=None)
def test_hidden_shift_always_deterministic(image, h_bits, shift):
    from repro.algorithms.hidden_shift import solve_hidden_shift

    mm = MaioranaMcFarland(
        BitPermutation(list(image)), TruthTable(2, h_bits)
    )
    instance = HiddenShiftInstance(mm, shift)
    result = solve_hidden_shift(instance)
    assert result.success
    assert abs(result.probability - 1.0) < 1e-9
