"""ESOP-based reversible synthesis — ancilla-free oracles.

Realizes the Bennett-embedded unitary of Sec. V, Eq. (4) with ``k = 0``:

    U : |x>|y> -> |x>|y ^ f(x)>

Each cube of an ESOP cover of output ``f_j`` becomes one MCT gate with
the cube literals as (positive/negative) controls and target line
``n + j``.  Because all targets are off the input lines, gate order is
irrelevant and the inputs are preserved exactly.

This is the "simple reversible synthesis method which does not require
additional ancilla qubits" whose scalability limit (~25 variables) the
paper discusses in Sec. IX; the scaling bench reproduces that claim.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..boolean.cube import Cube
from ..boolean.esop import minimize_esop
from ..boolean.truth_table import MultiTruthTable, TruthTable
from .reversible import MctGate, ReversibleCircuit


def esop_synthesis(
    function: Union[TruthTable, MultiTruthTable, Sequence[TruthTable]],
    effort: str = "medium",
) -> ReversibleCircuit:
    """Bennett-style XOR-oracle circuit on ``n + m`` lines.

    Line layout: inputs on ``0..n-1``, outputs on ``n..n+m-1`` (targets
    start in |0> for a plain function evaluation, or hold ``y`` for the
    XOR semantics).
    """
    tables = _as_tables(function)
    n = tables[0].num_vars
    circuit = ReversibleCircuit(n + len(tables), name="esop")
    for j, table in enumerate(tables):
        cubes = minimize_esop(table, effort=effort)
        circuit.extend(cubes_to_mct(cubes, target=n + j))
    return circuit


def cubes_to_mct(cubes: Sequence[Cube], target: int) -> List[MctGate]:
    """One MCT per cube; empty cube = unconditional NOT."""
    gates = []
    for cube in cubes:
        controls = []
        polarity = []
        for var, positive in cube.literals():
            controls.append(var)
            polarity.append(positive)
        gates.append(MctGate(target, tuple(controls), tuple(polarity)))
    return gates


def verify_esop_circuit(
    circuit: ReversibleCircuit,
    function: Union[TruthTable, MultiTruthTable, Sequence[TruthTable]],
) -> bool:
    """Check U|x>|0> = |x>|f(x)> for all x (exhaustive)."""
    tables = _as_tables(function)
    n = tables[0].num_vars
    for x in range(1 << n):
        output = circuit.apply(x)
        if output & ((1 << n) - 1) != x:
            return False
        for j, table in enumerate(tables):
            if (output >> (n + j)) & 1 != table(x):
                return False
    return True


def _as_tables(function) -> List[TruthTable]:
    if isinstance(function, TruthTable):
        return [function]
    if isinstance(function, MultiTruthTable):
        return list(function.outputs)
    return list(function)
