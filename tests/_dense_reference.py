"""Dense statevector evolution: the tensordot reference simulator.

This is the simulator's original gate path, kept outside the package
as an independent oracle.  Every gate is one ``np.tensordot``
contraction followed by a transpose back to qubit order and a
contiguous copy — three full-state copies per gate — with
``np.arange``-based permutation/diagonal paths for the X and Z
families.  It shares no code with :mod:`repro.simulator.kernels`, so
``tests/simulator/test_kernels.py`` differences the kernels against
it and ``benchmarks/bench_simulator_scaling.py`` times them against it.

The evolution functions take and return flat complex state vectors of
length ``2**n`` (qubit 0 is the least-significant index bit) and never
modify their input.  The whole-circuit checks at the end
(:func:`circuits_equivalent`, :func:`unitary_as_permutation`) compare
the package's dense unitaries (:func:`repro.core.unitary.circuit_unitary`)
and are how the tests decide that two small circuits agree.
"""

from typing import Iterable, Sequence

import numpy as np

from repro.core.gates import Gate
from repro.core.unitary import circuit_unitary


def apply_matrix(
    data: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix (``qubits[0]`` is its local MSB)."""
    k = len(qubits)
    n = data.size.bit_length() - 1
    tensor = data.reshape([2] * n)
    axes = [n - 1 - q for q in qubits]
    local = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(local, tensor, axes=(list(range(k, 2 * k)), axes))
    remaining = [a for a in range(n) if a not in axes]
    out_index = {axis: i for i, axis in enumerate(axes)}
    rem_index = {axis: k + i for i, axis in enumerate(remaining)}
    perm = [out_index[a] if a in out_index else rem_index[a] for a in range(n)]
    return np.ascontiguousarray(np.transpose(tensor, perm)).reshape(-1)


def _apply_mcx(data: np.ndarray, controls, target: int) -> np.ndarray:
    """X/CX/CCX/MCX as an index permutation."""
    indices = np.arange(data.size)
    mask = np.ones(data.size, dtype=bool)
    for ctl in controls:
        mask &= (indices >> ctl) & 1 == 1
    flipped = indices ^ (1 << target)
    out = data.copy()
    out[flipped[mask]] = data[indices[mask]]
    return out


def _apply_mcz(data: np.ndarray, controls, target: int) -> np.ndarray:
    """Z/CZ/CCZ/MCZ as a sign flip on the all-ones subspace."""
    indices = np.arange(data.size)
    mask = (indices >> target) & 1 == 1
    for ctl in controls:
        mask &= (indices >> ctl) & 1 == 1
    out = data.copy()
    out[mask] *= -1.0
    return out


def apply_gate(data: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one unitary gate; barriers and identities are no-ops."""
    if gate.name in ("barrier", "id"):
        return data.copy()
    if not gate.is_unitary:
        raise ValueError(f"cannot apply non-unitary {gate.name!r}")
    if gate.base_name == "x" and not gate.params:
        return _apply_mcx(data, gate.controls, gate.targets[0])
    if gate.base_name == "z" and not gate.params:
        return _apply_mcz(data, gate.controls, gate.targets[0])
    return apply_matrix(data, gate.matrix(), gate.qubits)


def evolve(data: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
    """Apply a unitary gate sequence, one dense contraction per gate."""
    data = np.array(data, dtype=complex)
    for gate in gates:
        data = apply_gate(data, gate)
    return data


def allclose_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-9
) -> bool:
    """True if ``a == e^{i phi} b`` for some real phi."""
    if a.shape != b.shape:
        return False
    # find the first non-negligible entry of b to fix the phase
    flat_b = b.ravel()
    flat_a = a.ravel()
    idx = np.argmax(np.abs(flat_b))
    if abs(flat_b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = flat_a[idx] / flat_b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def circuits_equivalent(circ_a, circ_b, up_to_phase=True):
    """Check unitary equivalence of two small circuits."""
    if circ_a.num_qubits != circ_b.num_qubits:
        return False
    ua = circuit_unitary(circ_a)
    ub = circuit_unitary(circ_b)
    if up_to_phase:
        return allclose_up_to_global_phase(ua, ub)
    return bool(np.allclose(ua, ub, atol=1e-9))


def unitary_as_permutation(unitary, atol=1e-9):
    """The permutation a (phased) permutation matrix realizes, else None.

    ``perm[x] = y`` means basis state ``|x>`` maps to ``|y>``.
    """
    dim = unitary.shape[0]
    perm = [0] * dim
    seen = set()
    for col in range(dim):
        column = unitary[:, col]
        idx = int(np.argmax(np.abs(column)))
        val = column[idx]
        if abs(abs(val) - 1.0) > 1e-6:
            return None
        residual = np.abs(column).sum() - abs(val)
        if residual > atol * dim:
            return None
        if idx in seen:
            return None
        seen.add(idx)
        perm[col] = idx
    return perm
