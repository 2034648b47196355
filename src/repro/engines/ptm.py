"""Pauli-transfer-matrix channel algebra for the density-matrix tier.

A single-qubit channel ``E`` is represented by its Pauli transfer
matrix (PTM) — the real 4x4 matrix

    R[i, j] = Tr(P_i E(P_j)) / 2,      P in (I, X, Y, Z)

acting on the Pauli coefficient vector ``c`` of a density matrix
``rho = sum_j c_j P_j`` (the quantumsim representation: unitaries and
noise compose as plain real matrix products, complete positivity and
trace preservation are directly readable).  The density-matrix engine
stores ``rho`` in the computational basis, so every PTM is lowered
once (and cached) to the equivalent 4x4 computational-basis
superoperator ``S = T R T^dagger / 2`` with ``T[:, j] = vec(P_j)``,
which :func:`repro.simulator.kernels.apply_matrix` then applies to the
(row-bit, column-bit) qubit pair of the flattened ``rho`` exactly like
a two-qubit gate on a statevector.

Channels provided: amplitude damping (T1 relaxation), phase damping
(T2 dephasing), depolarizing (uniform random Pauli — the
``monte_carlo`` engine's convention, so both noisy tiers agree
channel-for-channel).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

#: The Pauli basis (I, X, Y, Z) the transfer matrices are written in.
PAULIS: Tuple[np.ndarray, ...] = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

#: Basis-change matrix: column j is vec(P_j), row-major flattening.
_PAULI_COLUMNS = np.column_stack([p.reshape(-1) for p in PAULIS])


def amplitude_damping_ptm(gamma: float) -> np.ndarray:
    """PTM of T1 relaxation toward |0> with rate ``gamma``.

    Args:
        gamma: probability of losing the excitation (``gamma=1`` is a
            perfect reset to |0>).

    Returns:
        The real 4x4 Pauli transfer matrix (non-unital: the Z row
        gains a ``gamma`` contribution from the identity column).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"amplitude damping rate {gamma!r} not in [0, 1]")
    keep = math.sqrt(1.0 - gamma)
    out = np.diag([1.0, keep, keep, 1.0 - gamma])
    out[3, 0] = gamma
    return out


def phase_damping_ptm(lam: float) -> np.ndarray:
    """PTM of pure T2 dephasing with rate ``lam``.

    Args:
        lam: probability of the environment learning the phase.

    Returns:
        The real 4x4 Pauli transfer matrix (coherences shrink by
        ``sqrt(1 - lam)``, populations are untouched).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"phase damping rate {lam!r} not in [0, 1]")
    keep = math.sqrt(1.0 - lam)
    return np.diag([1.0, keep, keep, 1.0])


def depolarizing_ptm(p: float) -> np.ndarray:
    """PTM of the uniform-random-Pauli channel with rate ``p``.

    With probability ``p`` one of X/Y/Z (uniformly) hits the qubit —
    the exact-channel form of the ``monte_carlo`` engine's sampler
    (:mod:`repro.engines.monte_carlo`), so differential tests can compare
    the two tiers channel-for-channel.

    Args:
        p: probability of a random Pauli error.

    Returns:
        The real 4x4 Pauli transfer matrix ``diag(1, f, f, f)`` with
        ``f = 1 - 4p/3``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate {p!r} not in [0, 1]")
    fidelity = 1.0 - 4.0 * p / 3.0
    return np.diag([1.0, fidelity, fidelity, fidelity])


def ptm_to_superoperator(ptm: np.ndarray) -> np.ndarray:
    """Lower a PTM to the computational-basis superoperator.

    The returned matrix acts on the row-major flattening of a 2x2
    density matrix: ``vec(E(rho)) = S vec(rho)``.  Its local index
    pairs the qubit's row bit (most significant) with its column bit,
    which is exactly the qubit order the density-matrix engine hands
    to :func:`repro.simulator.kernels.apply_matrix`.

    Args:
        ptm: the real 4x4 Pauli transfer matrix.

    Returns:
        The complex 4x4 superoperator.
    """
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError("ptm_to_superoperator expects a 4x4 matrix")
    return (_PAULI_COLUMNS @ ptm @ _PAULI_COLUMNS.conj().T) / 2.0


@lru_cache(maxsize=256)
def _cached_channel_superop(kind: str, rate: float) -> np.ndarray:
    """Memoized (read-only) superoperator of a named builtin channel."""
    builders = {
        "amplitude_damping": amplitude_damping_ptm,
        "phase_damping": phase_damping_ptm,
        "depolarizing": depolarizing_ptm,
    }
    superop = ptm_to_superoperator(builders[kind](rate))
    superop.flags.writeable = False  # shared across callers
    return superop


def channel_superoperator(kind: str, rate: float) -> np.ndarray:
    """Cached computational-basis superoperator of a builtin channel.

    Args:
        kind: ``"amplitude_damping"``, ``"phase_damping"`` or
            ``"depolarizing"``.
        rate: the channel rate in [0, 1].

    Returns:
        The (read-only) complex 4x4 superoperator.
    """
    return _cached_channel_superop(kind, float(rate))
