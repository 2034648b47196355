"""Property tests for the in-place gate kernels and gate fusion.

Every named gate must take the dedicated kernel path, and that path
must agree with the dense tensordot reference
(``tests/_dense_reference.py``, the simulator's original gate path)
to 1e-12.  Fusion must preserve circuit semantics up to global phase.
"""

import random

import numpy as np
import pytest

import _dense_reference as dense
from _helpers import (
    apply_per_gate,
    assert_states_equal,
    random_clifford_t_circuit,
)

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.simulator import kernels
from repro.simulator.statevector import Statevector, _bit_gather_counts


def _random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    data /= np.linalg.norm(data)
    return data


def _random_gate(num_qubits, rng):
    """A random named gate: 1q, 2q, controlled, or diagonal."""
    kind = rng.choice(["1q", "rot", "2q", "controlled", "diagonal", "multi"])
    if kind == "1q":
        name = rng.choice(["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg"])
        return Gate(name, (rng.randrange(num_qubits),))
    if kind == "rot":
        name = rng.choice(["rx", "ry", "rz", "p"])
        return Gate(name, (rng.randrange(num_qubits),), params=(rng.uniform(-3, 3),))
    if kind == "2q":
        a, b = rng.sample(range(num_qubits), 2)
        name = rng.choice(["cx", "cy", "cz", "ch", "swap"])
        if name == "swap":
            return Gate("swap", (a, b))
        return Gate(name, (b,), (a,))
    if kind == "controlled":
        k = rng.randint(2, min(4, num_qubits - 1))
        qubits = rng.sample(range(num_qubits), k + 1)
        name = rng.choice(["mcx", "mcz"])
        canonical = {2: {"mcx": "ccx", "mcz": "ccz"}}.get(k, {}).get(name, name)
        return Gate(canonical, (qubits[-1],), tuple(qubits[:-1]))
    if kind == "diagonal":
        a, b = rng.sample(range(num_qubits), 2)
        name = rng.choice(["crz", "cp"])
        return Gate(name, (b,), (a,), params=(rng.uniform(-3, 3),))
    # multi: cswap
    a, b, c = rng.sample(range(num_qubits), 3)
    return Gate("cswap", (b, c), (a,))


@pytest.mark.parametrize("seed", range(30))
def test_kernel_matches_dense_apply_matrix(seed):
    """Kernel path == dense tensordot path for random named gates."""
    rng = random.Random(seed)
    num_qubits = rng.randint(3, 7)
    data = _random_state(num_qubits, seed)

    fast = Statevector(num_qubits, data)
    slow = data
    for _ in range(12):
        gate = _random_gate(num_qubits, rng)
        fast.apply_gate(gate)
        slow = dense.apply_gate(slow, gate)
    assert np.abs(fast.data - slow).max() < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_generic_kernel_matches_dense_for_arbitrary_matrix(seed):
    """The dense fallback kernel handles arbitrary unitary matrices."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(3, 8))
    k = int(rng.integers(1, 4))
    qubits = [int(q) for q in rng.choice(num_qubits, size=k, replace=False)]
    matrix = np.linalg.qr(
        rng.standard_normal((1 << k, 1 << k))
        + 1j * rng.standard_normal((1 << k, 1 << k))
    )[0]
    data = _random_state(num_qubits, seed + 100)
    fast = Statevector(num_qubits, data)
    fast.apply_matrix(matrix, qubits)
    slow = dense.apply_matrix(data, matrix, qubits)
    assert np.abs(fast.data - slow).max() < 1e-12


def test_named_gates_take_kernel_path():
    """Every gate in the vocabulary has a dedicated kernel."""
    samples = [
        Gate("h", (0,)),
        Gate("x", (1,)),
        Gate("y", (0,)),
        Gate("z", (2,)),
        Gate("s", (0,)),
        Gate("sdg", (1,)),
        Gate("t", (2,)),
        Gate("tdg", (0,)),
        Gate("sx", (1,)),
        Gate("sxdg", (2,)),
        Gate("rx", (0,), params=(0.3,)),
        Gate("ry", (1,), params=(0.4,)),
        Gate("rz", (2,), params=(0.5,)),
        Gate("p", (0,), params=(0.6,)),
        Gate("cx", (1,), (0,)),
        Gate("cy", (2,), (0,)),
        Gate("cz", (0,), (1,)),
        Gate("ch", (2,), (1,)),
        Gate("crz", (0,), (2,), params=(0.7,)),
        Gate("cp", (1,), (2,), params=(0.8,)),
        Gate("swap", (0, 1)),
        Gate("cswap", (1, 2), (0,)),
        Gate("ccx", (2,), (0, 1)),
        Gate("ccz", (0,), (1, 2)),
        Gate("mcx", (3,), (0, 1, 2)),
        Gate("mcz", (3,), (0, 1, 2)),
        Gate("mcp", (3,), (0, 1), params=(0.9,)),
    ]
    for gate in samples:
        state = _random_state(4, 7)
        assert kernels.apply_gate(state, gate, 4), gate.name


@pytest.mark.parametrize("seed", range(15))
def test_fusion_preserves_clifford_t_equivalence(seed):
    """Fused evolution equals unfused dense evolution on random circuits."""
    rng = random.Random(seed)
    num_qubits = rng.randint(3, 6)
    circ = random_clifford_t_circuit(num_qubits, 60, seed=seed)
    fused = Statevector(num_qubits).evolve(circ)
    ground = Statevector(num_qubits).data
    reference = Statevector(num_qubits, dense.evolve(ground, circ.gates))
    assert_states_equal(fused, reference, atol=1e-10)
    assert np.abs(fused.data - reference.data).max() < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_fusion_with_rotations_and_controls(seed):
    """Fusion also holds on circuits mixing rotations/controlled gates."""
    rng = random.Random(seed + 50)
    num_qubits = 5
    circ = QuantumCircuit(num_qubits)
    for _ in range(50):
        circ.append(_random_gate(num_qubits, rng))
    fused = Statevector(num_qubits).evolve(circ)
    unfused = Statevector(num_qubits).data
    apply_per_gate(unfused, circ.gates, num_qubits)
    assert np.abs(fused.data - unfused).max() < 1e-10


def test_compile_reduces_op_count(monkeypatch):
    """Each wire's run of 1q gates folds into one 2x2 op.

    Block fusion is switched off so it cannot hide a broken run merge
    by grouping the unmerged gates into one block.
    """
    monkeypatch.setattr(kernels, "_fuse_blocks", lambda ops: ops)
    circ = QuantumCircuit(2)
    circ.h(0).t(0).h(0).s(1).t(1).z(1)
    ops = kernels.compile_circuit(circ.gates)
    assert [kind for kind, _ in ops] == ["u1", "u1"]
    assert [qubit for _, (_, qubit) in ops] == [0, 1]


def test_identity_products_are_dropped():
    circ = QuantumCircuit(1).h(0).h(0)
    ops = kernels.compile_circuit(circ.gates)
    assert ops == []


def test_diagonal_run_merges_to_single_op():
    circ = QuantumCircuit(3)
    circ.cz(0, 1).t(2).ccz(0, 1, 2).rz(0.3, 1)
    ops = kernels.compile_circuit(circ.gates)
    assert len(ops) == 1
    kind, (qubits, diag) = ops[0]
    assert kind == "diag"
    assert qubits == (2, 1, 0)
    # check against dense evolution
    state = _random_state(3, 3)
    expected = dense.evolve(state, circ.gates)
    got = Statevector(3, state).evolve(circ)
    assert np.abs(got.data - expected).max() < 1e-12


def test_block_fusion_emits_blocks_on_dense_circuits():
    """An H+CX layered circuit compiles into matmul blocks."""
    circ = QuantumCircuit(8)
    for _ in range(3):
        for q in range(8):
            circ.h(q)
        for q in range(7):
            circ.cx(q, q + 1)
    ops = kernels.compile_circuit(circ.gates)
    kinds = {kind for kind, _ in ops}
    assert "block" in kinds
    assert len(ops) < len(circ.gates) / 2


def test_batched_kernels_match_unbatched():
    """Kernels on a (2^n, b) batch equal per-column application."""
    rng = np.random.default_rng(11)
    num_qubits = 4
    batch = np.stack([_random_state(num_qubits, s) for s in range(3)], axis=1)
    gate = Gate("ch", (2,), (0,))
    expected = batch.copy()
    for col in range(3):
        column = np.ascontiguousarray(expected[:, col])
        kernels.apply_gate(column, gate, num_qubits)
        expected[:, col] = column
    got = np.ascontiguousarray(batch)
    kernels.apply_gate(got, gate, num_qubits)
    assert np.abs(got - expected).max() < 1e-12


def test_bit_gather_counts_matches_loop_reference():
    """Vectorized bit-gather counting equals the per-shot reference."""
    circ = QuantumCircuit(3).h(0).cx(0, 1).x(2)
    state = Statevector(3).evolve(circ)
    rng = np.random.default_rng(5)
    probs = state.probabilities()
    outcomes = rng.choice(probs.size, size=500, p=probs / probs.sum())
    counts = _bit_gather_counts(outcomes, [(0, 2), (1, 0)])
    expected = {}
    for outcome in outcomes:
        key = ((int(outcome) >> 2) & 1) | (((int(outcome) >> 0) & 1) << 1)
        expected[key] = expected.get(key, 0) + 1
    assert counts == expected


def test_shared_prefix_mid_circuit_run_statistics():
    """Mid-circuit runs share the unitary prefix but stay correct."""
    circ = QuantumCircuit(2, 2)
    circ.h(0).cx(0, 1)  # deterministic prefix
    circ.measure(0, 0)
    circ.x(0)
    circ.measure(0, 1)
    result = engines.run("statevector", circ, shots=200, seed=3)
    assert sum(result.counts.values()) == 200
    for outcome in result.counts:
        first = outcome & 1
        second = (outcome >> 1) & 1
        assert second == first ^ 1
    # both branches of the entangled prefix must appear
    assert len(result.counts) == 2


def test_measure_qubit_matches_probabilities():
    state = Statevector(2).evolve(QuantumCircuit(2).h(1))
    rng = np.random.default_rng(0)
    outcome = state.measure_qubit(1, rng)  # qubit 1 is '+'
    assert outcome in (0, 1)
    assert np.linalg.norm(state.data) == pytest.approx(1.0)
    assert state.probability_of(0 if outcome == 0 else 2) == pytest.approx(1.0)
