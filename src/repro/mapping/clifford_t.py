"""Toffoli-to-Clifford+T building blocks.

The standard 7-T decomposition of CCX [40], [41]: the primitive both
mapping passes (:mod:`repro.mapping.barenco` and
:mod:`repro.mapping.relative_phase`) assemble into full MCT-network
mappings.
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
