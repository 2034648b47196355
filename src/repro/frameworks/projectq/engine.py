"""MainEngine — the ProjectQ-style command engine.

Mirrors the programming model of the paper's Figs. 4 and 7: qubits are
allocated from a :class:`MainEngine`, gate objects are applied with the
``|`` operator, meta-contexts (Compute/Uncompute/Dagger) transform the
command stream, and ``flush()`` ships the accumulated circuit to a
backend (simulator, noisy chip model, circuit collector).

After a flush, measured qubits can be read with ``int(qubit)`` /
``bool(qubit)`` exactly as in ProjectQ.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ...core.circuit import QuantumCircuit
from ...core.gates import Gate
from .backends import Backend, Simulator


class EngineError(RuntimeError):
    """Raised for invalid engine usage."""


class Qubit:
    """Handle to one engine wire; readable after measurement + flush."""

    def __init__(self, engine: "MainEngine", index: int):
        self.engine = engine
        self.index = index
        self._value: Optional[int] = None

    def __int__(self) -> int:
        if self._value is None:
            raise EngineError(
                f"qubit {self.index} has no measured value; call "
                "Measure and eng.flush() first"
            )
        return self._value

    def __bool__(self) -> bool:
        return bool(int(self))

    def __repr__(self) -> str:
        state = "?" if self._value is None else str(self._value)
        return f"Qubit({self.index}={state})"


class _Frame:
    """A recording frame for meta-contexts."""

    def __init__(self, kind: str):
        self.kind = kind
        self.gates: List[Gate] = []


class MainEngine:
    """Collects gate commands and executes them on a backend."""

    def __init__(self, backend: Optional[Backend] = None, seed: Optional[int] = None):
        self.backend: Backend = backend if backend is not None else Simulator(seed=seed)
        self.circuit = QuantumCircuit(0, 0, name="main")
        self.qubits: List[Qubit] = []
        self._frames: List[_Frame] = []
        self._last_compute: Optional[List[Gate]] = None
        self._measure_order: List[int] = []
        self._flushed = False

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate_qubit(self) -> Qubit:
        qubit = Qubit(self, len(self.qubits))
        self.qubits.append(qubit)
        self.circuit.num_qubits += 1
        return qubit

    def allocate_qureg(self, num_qubits: int) -> List[Qubit]:
        return [self.allocate_qubit() for _ in range(num_qubits)]

    # ------------------------------------------------------------------
    # command stream
    # ------------------------------------------------------------------
    def emit(self, gate: Gate) -> None:
        """Route a gate into the innermost recording frame (or the main
        circuit)."""
        if self._frames:
            self._frames[-1].gates.append(gate)
        else:
            self._append(gate)

    def _append(self, gate: Gate) -> None:
        if gate.is_measurement:
            qubit = gate.targets[0]
            self.circuit.num_clbits = max(
                self.circuit.num_clbits, qubit + 1
            )
            self.circuit.measure(qubit, qubit)
            self._measure_order.append(qubit)
        else:
            self.circuit.append(gate)

    # frame plumbing for the meta module -------------------------------
    def push_frame(self, kind: str) -> None:
        self._frames.append(_Frame(kind))

    def pop_frame(self, kind: str) -> List[Gate]:
        if not self._frames or self._frames[-1].kind != kind:
            raise EngineError(f"unbalanced meta sections (expected {kind})")
        return self._frames.pop().gates

    def replay(self, gates: Iterable[Gate]) -> None:
        """Emit recorded gates into the enclosing context."""
        for gate in gates:
            self.emit(gate)

    def set_last_compute(self, gates: List[Gate]) -> None:
        self._last_compute = gates

    def take_last_compute(self) -> List[Gate]:
        if self._last_compute is None:
            raise EngineError("Uncompute without a preceding Compute block")
        gates = self._last_compute
        self._last_compute = None
        return gates

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Execute the accumulated circuit on the backend and load
        measurement results into the qubit handles."""
        if self._frames:
            raise EngineError("flush inside an open meta section")
        outcome = self.backend.execute(self.circuit)
        if outcome is not None:
            for qubit_index in self._measure_order:
                self.qubits[qubit_index]._value = (outcome >> qubit_index) & 1
        self._flushed = True

    def __enter__(self) -> "MainEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._flushed:
            self.flush()
