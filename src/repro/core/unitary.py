"""Dense unitary construction.

Used by the test-suite and the verification step of the compilation
flow (Sec. IX of the paper discusses verification of synthesized
circuits).  Only practical for small qubit counts; the simulator
package handles larger widths without materializing matrices.

Gate application is delegated to the batched in-place kernels of
:mod:`repro.simulator.kernels`: the ``2^n x 2^n`` unitary is treated
as a batch of ``2^n`` column states indexed by the row (state) axis,
so the same bit-sliced code drives both the simulator and the dense
verifier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .circuit import QuantumCircuit

#: Widest circuit :func:`circuit_unitary` builds a matrix for.
MAX_UNITARY_QUBITS = 12


def _apply_gate_inplace(unitary: np.ndarray, gate, num_qubits: int) -> None:
    """Left-multiply ``unitary`` by ``gate`` in place via the kernels."""
    from ..simulator import kernels

    if not kernels.apply_gate(unitary, gate, num_qubits):
        kernels.apply_matrix(unitary, gate.matrix(), gate.qubits, num_qubits)


def apply_gate_to_unitary(unitary: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """Left-multiply ``unitary`` by ``gate`` lifted to ``num_qubits``.

    Qubit 0 is the least-significant bit of row/column indices.  The
    input is not modified; a new array is returned.
    """
    out = np.array(unitary, dtype=complex)
    _apply_gate_inplace(out, gate, num_qubits)
    return out


def circuit_unitary(circuit: "QuantumCircuit") -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    The unitary is evolved as a ``2**n``-column batch through the
    kernels' batch axis.
    """
    if circuit.num_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"refusing to build a dense unitary on {circuit.num_qubits} qubits"
        )
    dim = 1 << circuit.num_qubits
    unitary = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        if gate.name == "barrier":
            continue
        if not gate.is_unitary:
            raise ValueError(f"circuit contains non-unitary gate {gate.name!r}")
        _apply_gate_inplace(unitary, gate, circuit.num_qubits)
    return unitary
