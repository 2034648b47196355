"""Core quantum circuit IR: gates, circuits, statistics, QASM."""

from .circuit import FrozenCircuitError, QuantumCircuit
from .drawing import draw_circuit
from .gates import Gate, gate_matrix, is_clifford_name, is_clifford_t_name
from ..emit.qasm2 import QasmError, from_qasm, to_qasm
from .statistics import CircuitStatistics, circuit_statistics
from .unitary import circuit_unitary

__all__ = [
    "FrozenCircuitError",
    "QuantumCircuit",
    "draw_circuit",
    "Gate",
    "gate_matrix",
    "is_clifford_name",
    "is_clifford_t_name",
    "QasmError",
    "from_qasm",
    "to_qasm",
    "CircuitStatistics",
    "circuit_statistics",
    "circuit_unitary",
]
