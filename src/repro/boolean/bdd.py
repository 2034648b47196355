"""Reduced ordered binary decision diagrams (ROBDDs).

The symbolic function representation cited throughout Sec. V for
scaling synthesis beyond explicit truth tables ([45], [46], [51]).
This is a classical shared-node BDD package: a unique table keyed by
``(var, low, high)``, Shannon construction from a truth table, and the
query the BDD-based synthesis pass needs (node listing in topological
order).

Terminals are the integers ``0`` and ``1``; internal nodes are indices
into the package's node array.  Variable 0 is the *top* of the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .truth_table import TruthTable

#: Terminal node ids.
ZERO = 0
ONE = 1


@dataclass(frozen=True)
class BddNode:
    """Internal decision node: if var then high else low."""

    var: int
    low: int
    high: int


class Bdd:
    """A shared ROBDD manager over ``num_vars`` ordered variables."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        # nodes[0], nodes[1] are placeholders for terminals
        self.nodes: List[Optional[BddNode]] = [None, None]
        self._unique: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def make_node(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node (var, low, high), applying reduction."""
        if low == high:
            return low
        key = (var, low, high)
        node_id = self._unique.get(key)
        if node_id is None:
            node_id = len(self.nodes)
            self.nodes.append(BddNode(var, low, high))
            self._unique[key] = node_id
        return node_id

    def variable(self, var: int) -> int:
        """The function f = x_var."""
        if not 0 <= var < self.num_vars:
            raise ValueError("variable out of range")
        return self.make_node(var, ZERO, ONE)

    def is_terminal(self, node: int) -> bool:
        return node in (ZERO, ONE)

    def node(self, node_id: int) -> BddNode:
        data = self.nodes[node_id]
        if data is None:
            raise ValueError("terminal node has no structure")
        return data

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def from_truth_table(self, table: TruthTable) -> int:
        """Build the BDD of an explicit truth table (Shannon recursion)."""
        if table.num_vars != self.num_vars:
            raise ValueError("variable count mismatch")

        memo: Dict[Tuple[int, int], int] = {}

        def build(var: int, bits: int) -> int:
            remaining = self.num_vars - var
            if remaining == 0:
                return ONE if bits & 1 else ZERO
            key = (var, bits)
            cached = memo.get(key)
            if cached is not None:
                return cached
            half = 1 << (remaining - 1)
            # variable `var` is the LSB of the input index; splitting on
            # the *top* variable of the order means splitting the table
            # on its most significant remaining variable, so recurse
            # with var+... Actually: split on the highest variable so
            # that 'var' ordering 0..n-1 maps to index bits n-1..0.
            low_bits = 0
            high_bits = 0
            for x in range(half):
                if (bits >> x) & 1:
                    low_bits |= 1 << x
                if (bits >> (x + half)) & 1:
                    high_bits |= 1 << x
            low = build(var + 1, low_bits)
            high = build(var + 1, high_bits)
            result = self.make_node(var, low, high)
            memo[key] = result
            return result

        # note: with this construction variable 0 (top) corresponds to
        # input-index bit n-1.  Re-map so that BDD var i == table var i:
        remapped = table.permute_vars(list(reversed(range(self.num_vars))))
        return build(0, remapped.bits)

    def to_truth_table(self, node: int) -> TruthTable:
        """Expand a BDD back into an explicit truth table."""
        table = TruthTable(self.num_vars)
        for x in range(1 << self.num_vars):
            if self.evaluate(node, x):
                table.bits |= 1 << x
        return table

    def evaluate(self, node: int, x: int) -> int:
        """Evaluate at input ``x`` (variable i = bit i of x)."""
        while not self.is_terminal(node):
            data = self.node(node)
            node = data.high if (x >> data.var) & 1 else data.low
        return node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable_nodes(self, roots: Iterable[int]) -> List[int]:
        """Internal nodes reachable from ``roots`` in topological order
        (children before parents)."""
        seen = set()
        order: List[int] = []

        def visit(node: int) -> None:
            if node in seen or self.is_terminal(node):
                return
            seen.add(node)
            data = self.node(node)
            visit(data.low)
            visit(data.high)
            order.append(node)

        for root in roots:
            visit(root)
        return order
