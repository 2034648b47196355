"""BDD-based hierarchical reversible synthesis.

The Wille–Drechsler approach [45] adapted to ancilla lines: build the
(shared) BDD of the target function(s), allocate one ancilla line per
BDD node, and realize every node's Shannon expansion

    v = (x_var AND high) XOR (NOT x_var AND low)

with at most two Toffoli gates writing onto the node's clean ancilla.
Output values are copied to the output lines with CNOTs and all
intermediate nodes are uncomputed in reverse order (Bennett
compute–copy–uncompute), so ancillae are returned to |0>.

The ancilla count equals the number of BDD nodes — exactly the
"k is a result of the synthesis algorithm" issue Sec. V highlights as
an open challenge; :func:`bdd_synthesis` therefore reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..boolean.bdd import ONE, ZERO, Bdd
from .embedding import Function, as_tables
from .reversible import MctGate, ReversibleCircuit


@dataclass
class BddSynthesisResult:
    """Circuit plus line bookkeeping of the BDD-based flow."""

    circuit: ReversibleCircuit
    num_inputs: int
    num_outputs: int
    num_ancillae: int
    output_lines: List[int]
    bdd_nodes: int

    @property
    def total_lines(self) -> int:
        return self.circuit.num_lines


def bdd_synthesis(
    function: Function,
) -> BddSynthesisResult:
    """Hierarchical synthesis over the shared BDD of ``function``.

    Line layout: inputs ``0..n-1``, outputs ``n..n+m-1`` (clean),
    ancillae above.  Realizes ``|x>|0>|0> -> |x>|f(x)>|0>``.
    """
    tables = as_tables(function)
    n = tables[0].num_vars
    m = len(tables)
    bdd = Bdd(n)
    roots = [bdd.from_truth_table(table) for table in tables]
    nodes = bdd.reachable_nodes(roots)  # children before parents

    node_line: Dict[int, int] = {}
    next_line = n + m
    for node in nodes:
        node_line[node] = next_line
        next_line += 1

    circuit = ReversibleCircuit(next_line, name="bdd")

    compute_gates: List[MctGate] = []
    for node in nodes:
        compute_gates.extend(_node_gates(bdd, node, node_line))
    circuit.extend(compute_gates)

    # copy root values onto output lines
    for j, root in enumerate(roots):
        out = n + j
        if root == ONE:
            circuit.add_gate(out)
        elif root == ZERO:
            continue
        elif bdd.is_terminal(root):
            continue
        else:
            circuit.add_gate(out, (node_line[root],))

    # uncompute ancillae (reverse order, gates self-inverse)
    circuit.extend(reversed(compute_gates))

    return BddSynthesisResult(
        circuit=circuit,
        num_inputs=n,
        num_outputs=m,
        num_ancillae=len(nodes),
        output_lines=list(range(n, n + m)),
        bdd_nodes=len(nodes),
    )


def _node_gates(
    bdd: Bdd, node: int, node_line: Dict[int, int]
) -> List[MctGate]:
    """Gates computing node's function onto its clean ancilla line.

    v = (x AND high) XOR (~x AND low); terminal children specialize to
    plain CNOTs/NOTs on the corresponding branch.
    """
    data = bdd.node(node)
    var_line = data.var
    line = node_line[node]
    gates: List[MctGate] = []

    def branch(child: int, positive: bool) -> None:
        polarity = (positive,)
        if child == ZERO:
            return
        if child == ONE:
            gates.append(MctGate(line, (var_line,), polarity))
            return
        gates.append(
            MctGate(
                line,
                (var_line, node_line[child]),
                polarity + (True,),
            )
        )

    branch(data.high, True)
    branch(data.low, False)
    return gates
