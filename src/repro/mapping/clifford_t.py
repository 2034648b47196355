"""Toffoli-to-Clifford+T building blocks.

The standard 7-T decompositions of CCX/CCZ [40], [41] plus controlled-
phase helpers.  These are the primitives both mapping passes
(:mod:`repro.mapping.barenco` and :mod:`repro.mapping.relative_phase`)
assemble into full MCT-network mappings.
"""

from __future__ import annotations

from ..core.circuit import QuantumCircuit


def ccx_clifford_t(c1: int, c2: int, target: int, num_qubits: int) -> QuantumCircuit:
    """The textbook T-count-7, T-depth-3 CCX decomposition."""
    circ = QuantumCircuit(num_qubits, name="ccx")
    circ.h(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.cx(c1, target)
    circ.t(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.cx(c1, target)
    circ.t(c2)
    circ.t(target)
    circ.h(target)
    circ.cx(c1, c2)
    circ.t(c1)
    circ.tdg(c2)
    circ.cx(c1, c2)
    return circ


def ccz_clifford_t(c1: int, c2: int, target: int, num_qubits: int) -> QuantumCircuit:
    """CCZ = H(target) CCX H(target); T-count 7."""
    circ = QuantumCircuit(num_qubits, name="ccz")
    circ.h(target)
    circ.compose(ccx_clifford_t(c1, c2, target, num_qubits))
    circ.h(target)
    return circ


def cz_from_cx(control: int, target: int, num_qubits: int) -> QuantumCircuit:
    """Return CZ as H-CNOT-H on ``num_qubits`` wires.

    Args:
        control: control qubit index.
        target: target qubit index (conjugated by Hadamards).
        num_qubits: width of the returned circuit.

    Returns:
        A 3-gate :class:`~repro.core.circuit.QuantumCircuit`.
    """
    circ = QuantumCircuit(num_qubits, name="cz")
    circ.h(target)
    circ.cx(control, target)
    circ.h(target)
    return circ


def swap_from_cx(a: int, b: int, num_qubits: int) -> QuantumCircuit:
    """Return SWAP(a, b) as three CNOTs on ``num_qubits`` wires.

    Args:
        a: first qubit index.
        b: second qubit index.
        num_qubits: width of the returned circuit.

    Returns:
        A 3-CNOT :class:`~repro.core.circuit.QuantumCircuit`.
    """
    circ = QuantumCircuit(num_qubits, name="swap")
    circ.cx(a, b)
    circ.cx(b, a)
    circ.cx(a, b)
    return circ
