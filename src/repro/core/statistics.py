"""Circuit statistics — the ``ps -c`` command of the RevKit shell.

Collects the cost figures the paper's flow reports: total gates, depth,
T-count, T-depth, two-qubit gate count, Clifford counts, qubit count,
plus a ``gate histogram``.  The :class:`CircuitStatistics` object prints
in the style of RevKit's ``ps -c`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

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
    """Compute the full statistics bundle for ``circuit``."""
    from .gates import is_clifford_name

    unitary_gates = [
        g for g in circuit.gates if g.is_unitary and g.name != "barrier"
    ]
    clifford = sum(
        1 for g in unitary_gates if is_clifford_name(g.name, g.params)
    )
    return CircuitStatistics(
        num_qubits=circuit.num_qubits,
        num_gates=len(unitary_gates),
        depth=circuit.depth(),
        t_count=circuit.t_count(),
        t_depth=circuit.t_depth(),
        two_qubit_count=circuit.two_qubit_count(),
        clifford_count=clifford,
        histogram=circuit.count_ops(),
    )
