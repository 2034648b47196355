"""Per-figure cost loops: the reference oracle of ``circuit_statistics``.

These are the package's original ``QuantumCircuit`` methods, one scan
per figure, kept outside the package as an independent oracle.  The
package computes every figure in one scan
(:func:`repro.core.statistics.circuit_statistics`) and the circuit
methods read that bundle, so ``tests/core/test_statistics.py`` checks
the bundle against these loops, never against itself.
"""

from typing import Dict

from repro.core.circuit import QuantumCircuit


def count_ops(circuit: QuantumCircuit) -> Dict[str, int]:
    """Histogram of gate names, barriers included."""
    counts: Dict[str, int] = {}
    for gate in circuit.gates:
        counts[gate.name] = counts.get(gate.name, 0) + 1
    return counts


def depth(circuit: QuantumCircuit) -> int:
    """Circuit depth counting every non-barrier gate as one level."""
    level: Dict[int, int] = {}
    result = 0
    for gate in circuit.gates:
        if gate.name == "barrier":
            continue
        start = max((level.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            level[q] = start + 1
        result = max(result, start + 1)
    return result


def t_depth(circuit: QuantumCircuit) -> int:
    """Number of T-stages: depth counting only T/T' gates."""
    level: Dict[int, int] = {}
    result = 0
    for gate in circuit.gates:
        if gate.name == "barrier":
            continue
        start = max((level.get(q, 0) for q in gate.qubits), default=0)
        inc = 1 if gate.name in ("t", "tdg") else 0
        for q in gate.qubits:
            level[q] = start + inc
        result = max(result, start + inc)
    return result


def t_count(circuit: QuantumCircuit) -> int:
    """Number of T/T' gates."""
    return sum(1 for g in circuit.gates if g.name in ("t", "tdg"))


def two_qubit_count(circuit: QuantumCircuit) -> int:
    """Number of unitary gates on exactly two qubits."""
    return sum(
        1 for g in circuit.gates if g.is_unitary and g.num_qubits == 2
    )
