"""Gate objects with ProjectQ's ``Gate | qubits`` application syntax.

Provides the vocabulary used in the paper's listings: ``H``, ``X``,
``Z``, ``Measure``, ``All(H)``, ``CNOT``, plus the rest of the
Clifford+T set and rotations.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ...core.gates import Gate
from .engine import EngineError, MainEngine, Qubit

Operand = Union[Qubit, Sequence[Qubit]]


def _qubit_list(operand: Operand) -> List[Qubit]:
    if isinstance(operand, Qubit):
        return [operand]
    out: List[Qubit] = []
    for item in operand:
        if isinstance(item, Qubit):
            out.append(item)
        else:  # nested register
            out.extend(_qubit_list(item))
    return out


def _engine_of(qubits: List[Qubit]) -> MainEngine:
    if not qubits:
        raise EngineError("gate applied to no qubits")
    engine = qubits[0].engine
    if any(q.engine is not engine for q in qubits):
        raise EngineError("qubits belong to different engines")
    return engine


class BasicGate:
    """A gate object applied with ``gate | qubits``."""

    def __init__(self, name: str, num_targets: int = 1, num_controls: int = 0,
                 params: Tuple[float, ...] = ()):
        self.name = name
        self.num_targets = num_targets
        self.num_controls = num_controls
        self.params = params

    def __or__(self, operand: Operand) -> None:
        qubits = _qubit_list(operand)
        engine = _engine_of(qubits)
        expected = self.num_targets + self.num_controls
        if len(qubits) != expected:
            raise EngineError(
                f"{self.name} expects {expected} qubits, got {len(qubits)}"
            )
        controls = tuple(q.index for q in qubits[: self.num_controls])
        targets = tuple(q.index for q in qubits[self.num_controls:])
        engine.emit(Gate(self.name, targets, controls, self.params))

    def __str__(self) -> str:
        return self.name.upper()


class _MeasureGate:
    """``Measure | qubit`` or ``Measure | qureg``."""

    def __or__(self, operand: Operand) -> None:
        qubits = _qubit_list(operand)
        engine = _engine_of(qubits)
        for qubit in qubits:
            engine.emit(Gate("measure", (qubit.index,), cbits=(qubit.index,)))

    def __str__(self) -> str:
        return "Measure"


class All:
    """``All(H) | qureg`` applies a one-qubit gate to every qubit."""

    def __init__(self, gate: BasicGate):
        if gate.num_targets != 1 or gate.num_controls != 0:
            raise EngineError("All() needs a single-qubit gate")
        self.gate = gate

    def __or__(self, operand: Operand) -> None:
        for qubit in _qubit_list(operand):
            self.gate | qubit


class Rz(BasicGate):
    def __init__(self, angle: float):
        super().__init__("rz", params=(float(angle),))


class Rx(BasicGate):
    def __init__(self, angle: float):
        super().__init__("rx", params=(float(angle),))


class Ry(BasicGate):
    def __init__(self, angle: float):
        super().__init__("ry", params=(float(angle),))


class Ph(BasicGate):
    """Phase gate diag(1, e^{i angle})."""

    def __init__(self, angle: float):
        super().__init__("p", params=(float(angle),))


H = BasicGate("h")
X = BasicGate("x")
Y = BasicGate("y")
Z = BasicGate("z")
S = BasicGate("s")
Sdag = BasicGate("sdg")
T = BasicGate("t")
Tdag = BasicGate("tdg")
NOT = X
CNOT = BasicGate("cx", num_targets=1, num_controls=1)
CX = CNOT
CZ = BasicGate("cz", num_targets=1, num_controls=1)
Swap = BasicGate("swap", num_targets=2)
Toffoli = BasicGate("ccx", num_targets=1, num_controls=2)
CCX = Toffoli
Measure = _MeasureGate()
