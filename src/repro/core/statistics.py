"""Circuit statistics — the ``ps -c`` command of the RevKit shell.

Collects the cost figures the paper's flow reports: total gates, depth,
T-count, T-depth, two-qubit gate count, Clifford counts, qubit count,
plus a ``gate histogram``.  The :class:`CircuitStatistics` object prints
in the style of RevKit's ``ps -c`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from .gates import NON_UNITARY, is_clifford_name

if TYPE_CHECKING:  # pragma: no cover
    from .circuit import QuantumCircuit


@dataclass(frozen=True)
class CircuitStatistics:
    """Cost summary of a quantum circuit (read-only)."""

    num_qubits: int
    num_gates: int
    depth: int
    t_count: int
    t_depth: int
    two_qubit_count: int
    clifford_count: int
    histogram: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        return {
            "qubits": self.num_qubits,
            "gates": self.num_gates,
            "depth": self.depth,
            "t_count": self.t_count,
            "t_depth": self.t_depth,
            "two_qubit": self.two_qubit_count,
            "clifford": self.clifford_count,
        }

    def __str__(self) -> str:
        head = (
            f"qubits: {self.num_qubits}  gates: {self.num_gates}  "
            f"depth: {self.depth}  T: {self.t_count}  "
            f"T-depth: {self.t_depth}  2q: {self.two_qubit_count}"
        )
        hist = "  ".join(f"{k}={v}" for k, v in sorted(self.histogram.items()))
        return head + ("\n" + hist if hist else "")


def circuit_statistics(circuit: "QuantumCircuit") -> CircuitStatistics:
    """Compute the full statistics bundle for ``circuit`` in one scan.

    This is the one implementation of the cost figures: the
    :class:`QuantumCircuit` methods ``depth``, ``two_qubit_count`` and
    ``count_ops`` read it.  Barriers count in the histogram only,
    measurements and resets in the histogram and both depths.
    """
    histogram: Dict[str, int] = {}
    level: Dict[int, int] = {}  # depth reached on each wire
    t_level: Dict[int, int] = {}  # T-depth reached on each wire
    depth = t_depth = t_count = num_gates = two_qubit = clifford = 0
    for gate in circuit.gates:
        name = gate.name
        histogram[name] = histogram.get(name, 0) + 1
        if name == "barrier":
            continue
        qubits = gate.qubits
        start = t_start = 0
        for q in qubits:
            if level.get(q, 0) > start:
                start = level[q]
            if t_level.get(q, 0) > t_start:
                t_start = t_level[q]
        start += 1
        if name == "t" or name == "tdg":
            t_count += 1
            t_start += 1
        for q in qubits:
            level[q] = start
            t_level[q] = t_start
        if start > depth:
            depth = start
        if t_start > t_depth:
            t_depth = t_start
        if name in NON_UNITARY:
            continue
        num_gates += 1
        if len(qubits) == 2:
            two_qubit += 1
        if is_clifford_name(name, gate.params):
            clifford += 1
    return CircuitStatistics(
        num_qubits=circuit.num_qubits,
        num_gates=num_gates,
        depth=depth,
        t_count=t_count,
        t_depth=t_depth,
        two_qubit_count=two_qubit,
        clifford_count=clifford,
        histogram=histogram,
    )
