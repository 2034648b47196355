"""Pauli-transfer-matrix reference algebra for the density-matrix tests.

:mod:`repro.engines.ptm` builds only what the density-matrix engine
runs: the builtin noise channels' PTMs and their computational-basis
superoperators.  The general constructions here — the PTM of any
unitary or Kraus set, channel composition, the trace-preservation and
unitality predicates, the inverse lowering and the readout-assignment
matrix — are oracles the tests check those channels against.  Every
PTM is the real 4x4 matrix ``R[i, j] = Tr(P_i E(P_j)) / 2`` over the
Pauli basis ``repro.engines.ptm.PAULIS``.
"""

import numpy as np

from repro.engines.ptm import PAULIS

#: Column j is vec(P_j), row-major flattening.
PAULI_COLUMNS = np.column_stack([p.reshape(-1) for p in PAULIS])


def unitary_ptm(matrix):
    """Return the PTM of a single-qubit unitary ``U rho U^dagger``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("unitary_ptm expects a 2x2 matrix")
    out = np.empty((4, 4))
    for j, p_j in enumerate(PAULIS):
        image = matrix @ p_j @ matrix.conj().T
        for i, p_i in enumerate(PAULIS):
            out[i, j] = np.trace(p_i @ image).real / 2.0
    return out


def kraus_ptm(operators):
    """Return the PTM of the channel ``sum_k K_k rho K_k^dagger``."""
    out = np.zeros((4, 4))
    for kraus in operators:
        kraus = np.asarray(kraus, dtype=complex)
        for j, p_j in enumerate(PAULIS):
            image = kraus @ p_j @ kraus.conj().T
            for i, p_i in enumerate(PAULIS):
                out[i, j] += np.trace(p_i @ image).real / 2.0
    return out


def compose_ptms(*ptms):
    """Compose channels left-to-right (first argument acts first)."""
    out = np.eye(4)
    for ptm in ptms:
        out = np.asarray(ptm) @ out
    return out


def is_trace_preserving(ptm, atol=1e-12):
    """Whether the channel preserves trace (first PTM row is e_0)."""
    return bool(
        np.allclose(np.asarray(ptm)[0], [1.0, 0.0, 0.0, 0.0], atol=atol)
    )


def is_unital(ptm, atol=1e-12):
    """Whether the channel fixes the identity (first PTM column is e_0)."""
    return bool(
        np.allclose(np.asarray(ptm)[:, 0], [1.0, 0.0, 0.0, 0.0], atol=atol)
    )


def superoperator_to_ptm(superop):
    """Raise a computational-basis superoperator back to its PTM."""
    superop = np.asarray(superop, dtype=complex)
    if superop.shape != (4, 4):
        raise ValueError("superoperator_to_ptm expects a 4x4 matrix")
    return ((PAULI_COLUMNS.conj().T @ superop @ PAULI_COLUMNS) / 2.0).real


def readout_assignment(p_flip):
    """Column-stochastic readout matrix ``[[1-p, p], [p, 1-p]]``.

    It acts on ``(p0, p1)`` vectors of one measured bit.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError(f"readout flip rate {p_flip!r} not in [0, 1]")
    return np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
