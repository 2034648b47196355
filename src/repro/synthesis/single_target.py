"""Single-target gates and their MCT realization.

A *single-target gate* T_c(f) flips one target line iff a Boolean
control function f over the other lines evaluates to 1.  Young-subgroup
decomposition (``dbs``) produces exactly such gates; they are lowered
to MCT cascades through an ESOP cover of the control function — one
MCT per cube, with cube literals becoming positive/negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..boolean.esop import minimize_esop
from ..boolean.truth_table import TruthTable
from .reversible import MctGate, ReversibleCircuit


@dataclass(frozen=True)
class SingleTargetGate:
    """Target line + control function over ``control_lines``.

    ``function`` is a truth table over ``len(control_lines)`` variables;
    variable i of the table corresponds to line ``control_lines[i]``.
    """

    target: int
    control_lines: tuple
    function: TruthTable

    def __post_init__(self) -> None:
        if self.function.num_vars != len(self.control_lines):
            raise ValueError("control function arity mismatch")
        if self.target in self.control_lines:
            raise ValueError("target cannot be a control line")

    def apply(self, value: int) -> int:
        local = 0
        for i, line in enumerate(self.control_lines):
            if (value >> line) & 1:
                local |= 1 << i
        if self.function(local):
            return value ^ (1 << self.target)
        return value

    def to_mct_gates(self, effort: str = "medium") -> List[MctGate]:
        """Lower to MCTs via an ESOP cover of the control function."""
        gates: List[MctGate] = []
        for cube in minimize_esop(self.function, effort=effort):
            controls = []
            polarity = []
            for var, positive in cube.literals():
                controls.append(self.control_lines[var])
                polarity.append(positive)
            gates.append(MctGate(self.target, tuple(controls), tuple(polarity)))
        return gates


def single_target_gates_to_circuit(
    gates: Sequence[SingleTargetGate], num_lines: int, effort: str = "medium"
) -> ReversibleCircuit:
    """Lower a cascade of single-target gates to one MCT circuit."""
    circuit = ReversibleCircuit(num_lines, name="stg")
    for gate in gates:
        circuit.extend(gate.to_mct_gates(effort=effort))
    return circuit
