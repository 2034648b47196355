"""PhaseOracle and PermutationOracle — the RevKit interop.

These are the two statements through which the paper's ProjectQ
programs invoke RevKit (``projectq.libs.revkit`` in Fig. 4/7):

* ``PhaseOracle(f) | qubits`` compiles a Python predicate (or truth
  table) into the diagonal unitary
  ``U_f = sum_x (-1)^{f(x)} |x><x|`` via an ESOP cover — every cube
  becomes a (negatively/positively controlled) multi-controlled Z.
* ``PermutationOracle(pi, synth=...) | qubits`` compiles a permutation
  into a reversible circuit with the chosen synthesis algorithm
  (default: transformation-based synthesis [43], as in the paper) and
  emits it gate by gate, so Compute/Dagger contexts apply.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ...boolean.cube import Cube
from ...boolean.esop import minimize_esop
from ...boolean.expression import predicate_to_truth_table
from ...boolean.permutation import BitPermutation
from ...boolean.truth_table import TruthTable
from ...core.gates import Gate
from ...synthesis.reversible import ReversibleCircuit
from ...synthesis.transformation import transformation_based_synthesis
from .engine import EngineError
from .ops import _engine_of, _qubit_list

FunctionSpec = Union[Callable, TruthTable]
SynthesisFn = Callable[[BitPermutation], ReversibleCircuit]


class PhaseOracle:
    """Diagonal phase oracle of a Boolean predicate."""

    def __init__(self, function: FunctionSpec):
        self.function = function

    def _truth_table(self, num_vars: int) -> TruthTable:
        if isinstance(self.function, TruthTable):
            if self.function.num_vars != num_vars:
                raise EngineError(
                    f"oracle is over {self.function.num_vars} variables "
                    f"but {num_vars} qubits were supplied"
                )
            return self.function
        return predicate_to_truth_table(self.function, num_vars)

    def __or__(self, operand) -> None:
        qubits = _qubit_list(operand)
        engine = _engine_of(qubits)
        table = self._truth_table(len(qubits))
        cubes = minimize_esop(table)
        for gate in phase_oracle_gates(cubes, [q.index for q in qubits]):
            engine.emit(gate)


def phase_oracle_gates(cubes: Sequence[Cube], wires: Sequence[int]) -> List[Gate]:
    """Gates realizing ``prod_cubes (-1)^{cube(x)}`` on ``wires``.

    Cube variable i acts on ``wires[i]``.  Negative literals are
    X-conjugated; the constant cube contributes only a global phase
    and is realized as Z X Z X (= -I) on the first wire so simulation
    remains exactly faithful.
    """
    gates: List[Gate] = []
    for cube in cubes:
        literals = list(cube.literals())
        if not literals:
            wire = wires[0]
            gates.extend(
                [
                    Gate("z", (wire,)),
                    Gate("x", (wire,)),
                    Gate("z", (wire,)),
                    Gate("x", (wire,)),
                ]
            )
            continue
        negatives = [wires[var] for var, pos in literals if not pos]
        lines = [wires[var] for var, _pos in literals]
        for wire in negatives:
            gates.append(Gate("x", (wire,)))
        target = lines[-1]
        controls = tuple(lines[:-1])
        if not controls:
            gates.append(Gate("z", (target,)))
        elif len(controls) == 1:
            gates.append(Gate("cz", (target,), controls))
        elif len(controls) == 2:
            gates.append(Gate("ccz", (target,), controls))
        else:
            gates.append(Gate("mcz", (target,), controls))
        for wire in negatives:
            gates.append(Gate("x", (wire,)))
    return gates


class PermutationOracle:
    """Reversible-circuit oracle of a bit-vector permutation."""

    def __init__(
        self,
        permutation: Union[BitPermutation, Sequence[int]],
        synth: Optional[SynthesisFn] = None,
    ):
        if not isinstance(permutation, BitPermutation):
            permutation = BitPermutation(list(permutation))
        self.permutation = permutation
        self.synth = synth if synth is not None else transformation_based_synthesis

    def __or__(self, operand) -> None:
        qubits = _qubit_list(operand)
        engine = _engine_of(qubits)
        if len(qubits) != self.permutation.num_bits:
            raise EngineError(
                f"permutation over {self.permutation.num_bits} bits "
                f"applied to {len(qubits)} qubits"
            )
        circuit = self.synth(self.permutation)
        wires = [q.index for q in qubits]
        for gate in permutation_oracle_gates(circuit, wires):
            engine.emit(gate)


def permutation_oracle_gates(
    circuit: ReversibleCircuit, wires: Sequence[int]
) -> List[Gate]:
    """Lower an MCT network onto engine wires (negative controls via X).

    Raises if the synthesized circuit needs more lines than wires were
    supplied (ancilla-using synthesis results need explicit registers).
    """
    if circuit.num_lines > len(wires):
        raise EngineError(
            f"synthesized circuit uses {circuit.num_lines} lines but "
            f"only {len(wires)} qubits were supplied"
        )
    gates: List[Gate] = []
    for mct in circuit.gates:
        negatives = [
            wires[line]
            for line, positive in zip(mct.controls, mct.polarity)
            if not positive
        ]
        for wire in negatives:
            gates.append(Gate("x", (wire,)))
        controls = tuple(wires[line] for line in mct.controls)
        target = wires[mct.target]
        if not controls:
            gates.append(Gate("x", (target,)))
        elif len(controls) == 1:
            gates.append(Gate("cx", (target,), controls))
        elif len(controls) == 2:
            gates.append(Gate("ccx", (target,), controls))
        else:
            gates.append(Gate("mcx", (target,), controls))
        for wire in negatives:
            gates.append(Gate("x", (wire,)))
    return gates
