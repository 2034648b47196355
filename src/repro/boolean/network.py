"""XOR-AND logic networks (XAGs) and k-LUT mapping.

Hierarchical reversible synthesis (Sec. V: BDD-, AIG-, XMG- and
LUT-based methods [45], [55], [63], [65]) starts from a multi-level
logic network of the function to compile.  This module provides:

* :class:`LogicNetwork` — a DAG of AND/XOR nodes over complemented
  edges (an XAG; plain AIGs are the XOR-free special case);
* construction from ESOP covers or truth tables;
* bit-parallel simulation back to truth tables;
* :func:`lut_map` — cut-based k-LUT mapping (exhaustive bounded cut
  enumeration + greedy area-oriented cover selection), producing the
  :class:`LutNetwork` consumed by LUT-based reversible synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .cube import Cube
from .esop import minimize_esop
from .truth_table import TruthTable

#: A signal is a node index with a complement flag encoded in bit 0.
Signal = int


def make_signal(node: int, complemented: bool = False) -> Signal:
    return (node << 1) | int(complemented)


def signal_node(signal: Signal) -> int:
    return signal >> 1


def signal_complemented(signal: Signal) -> bool:
    return bool(signal & 1)


@dataclass(frozen=True)
class NetworkNode:
    """An internal gate: kind in {"and", "xor"}, two fanin signals."""

    kind: str
    fanin: Tuple[Signal, Signal]


class LogicNetwork:
    """An XAG: primary inputs, AND/XOR nodes, complemented edges.

    Node 0 is the constant-0 node; primary inputs follow; internal
    nodes are appended in topological order.
    """

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.nodes: List[Optional[NetworkNode]] = [None] * (1 + num_inputs)
        self.outputs: List[Signal] = []
        self._strash: Dict[Tuple[str, Signal, Signal], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def constant(self, value: bool = False) -> Signal:
        return make_signal(0, value)

    def input_signal(self, index: int) -> Signal:
        if not 0 <= index < self.num_inputs:
            raise ValueError("input index out of range")
        return make_signal(1 + index)

    def _create(self, kind: str, a: Signal, b: Signal) -> Signal:
        if a > b:
            a, b = b, a
        key = (kind, a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self.nodes)
            self.nodes.append(NetworkNode(kind, (a, b)))
            self._strash[key] = node
        return make_signal(node)

    def create_and(self, a: Signal, b: Signal) -> Signal:
        # constant propagation
        if a == self.constant(False) or b == self.constant(False):
            return self.constant(False)
        if a == self.constant(True):
            return b
        if b == self.constant(True):
            return a
        if a == b:
            return a
        if signal_node(a) == signal_node(b):  # a & ~a
            return self.constant(False)
        return self._create("and", a, b)

    def create_xor(self, a: Signal, b: Signal) -> Signal:
        if a == self.constant(False):
            return b
        if b == self.constant(False):
            return a
        if a == self.constant(True):
            return self.create_not(b)
        if b == self.constant(True):
            return self.create_not(a)
        if a == b:
            return self.constant(False)
        if signal_node(a) == signal_node(b):
            return self.constant(True)
        # normalize: push complements out (x ^ ~y = ~(x ^ y))
        complement = signal_complemented(a) ^ signal_complemented(b)
        a = make_signal(signal_node(a))
        b = make_signal(signal_node(b))
        result = self._create("xor", a, b)
        return result ^ int(complement)

    @staticmethod
    def create_not(a: Signal) -> Signal:
        return a ^ 1

    def add_output(self, signal: Signal) -> int:
        self.outputs.append(signal)
        return len(self.outputs) - 1

    # ------------------------------------------------------------------
    @classmethod
    def from_esop(cls, cubes: Sequence[Cube], num_inputs: int) -> "LogicNetwork":
        """XOR-chain of AND-trees — the natural XAG of an ESOP."""
        network = cls(num_inputs)
        acc = network.constant(False)
        for cube in cubes:
            term = network.constant(True)
            for var, positive in cube.literals():
                literal = network.input_signal(var)
                if not positive:
                    literal = network.create_not(literal)
                term = network.create_and(term, literal)
            acc = network.create_xor(acc, term)
        network.add_output(acc)
        return network

    @classmethod
    def from_truth_table(cls, table: TruthTable) -> "LogicNetwork":
        """Network via a minimized ESOP cover of the table."""
        return cls.from_esop(minimize_esop(table), table.num_vars)

    @classmethod
    def from_truth_tables(cls, tables: Sequence[TruthTable]) -> "LogicNetwork":
        """Multi-output network sharing structure across outputs."""
        if not tables:
            raise ValueError("need at least one output")
        network = cls(tables[0].num_vars)
        for table in tables:
            acc = network.constant(False)
            for cube in minimize_esop(table):
                term = network.constant(True)
                for var, positive in cube.literals():
                    literal = network.input_signal(var)
                    if not positive:
                        literal = network.create_not(literal)
                    term = network.create_and(term, literal)
                acc = network.create_xor(acc, term)
            network.add_output(acc)
        return network

    # ------------------------------------------------------------------
    # inspection / simulation
    # ------------------------------------------------------------------
    def num_gates(self) -> int:
        return len(self.nodes) - 1 - self.num_inputs

    def gate_nodes(self) -> List[int]:
        return list(range(1 + self.num_inputs, len(self.nodes)))

    def is_input(self, node: int) -> bool:
        return 1 <= node <= self.num_inputs

    def simulate(self) -> List[TruthTable]:
        """Truth tables of all outputs (bit-parallel over all inputs)."""
        values = self.simulate_nodes()
        out: List[TruthTable] = []
        for signal in self.outputs:
            table = values[signal_node(signal)]
            out.append(~table if signal_complemented(signal) else table)
        return out

    def simulate_nodes(self) -> List[TruthTable]:
        """Truth table of every node (by node index)."""
        n = self.num_inputs
        values: List[TruthTable] = [TruthTable(n)]  # constant 0
        for i in range(n):
            values.append(TruthTable.projection(n, i))
        for node_id in self.gate_nodes():
            node = self.nodes[node_id]
            a = values[signal_node(node.fanin[0])]
            if signal_complemented(node.fanin[0]):
                a = ~a
            b = values[signal_node(node.fanin[1])]
            if signal_complemented(node.fanin[1]):
                b = ~b
            values.append(a & b if node.kind == "and" else a ^ b)
        return values

    def depth(self) -> int:
        levels: Dict[int, int] = {0: 0}
        for i in range(1, 1 + self.num_inputs):
            levels[i] = 0
        best = 0
        for node_id in self.gate_nodes():
            node = self.nodes[node_id]
            level = 1 + max(
                levels[signal_node(node.fanin[0])],
                levels[signal_node(node.fanin[1])],
            )
            levels[node_id] = level
            best = max(best, level)
        return best


# ----------------------------------------------------------------------
# k-LUT mapping
# ----------------------------------------------------------------------
@dataclass
class Lut:
    """One mapped LUT: a function of its leaf nodes."""

    node: int                      # network node this LUT computes
    leaves: Tuple[int, ...]        # leaf node ids (inputs of the LUT)
    table: TruthTable              # function over the leaves (var i = leaf i)


@dataclass
class LutNetwork:
    """Result of k-LUT mapping: LUTs in topological order."""

    num_inputs: int
    luts: List[Lut]
    outputs: List[Tuple[int, bool]]  # (node, complemented) per output

    def simulate(self) -> List[TruthTable]:
        """Verify the mapping by re-simulating over primary inputs."""
        n = self.num_inputs
        values: Dict[int, TruthTable] = {0: TruthTable(n)}
        for i in range(n):
            values[1 + i] = TruthTable.projection(n, i)
        for lut in self.luts:
            result = TruthTable(n)
            for x in range(1 << n):
                local = 0
                for j, leaf in enumerate(lut.leaves):
                    if values[leaf](x):
                        local |= 1 << j
                if lut.table(local):
                    result.bits |= 1 << x
            values[lut.node] = result
        out = []
        for node, complemented in self.outputs:
            table = values[node]
            out.append(~table if complemented else table)
        return out


def _enumerate_cuts(
    network: LogicNetwork, k: int, cut_limit: int = 12
) -> Dict[int, List[FrozenSet[int]]]:
    """Bounded cut enumeration: up to ``cut_limit`` cuts of size <= k
    per node, always including the trivial cut {node}."""
    cuts: Dict[int, List[FrozenSet[int]]] = {0: [frozenset()]}
    for i in range(1, 1 + network.num_inputs):
        cuts[i] = [frozenset({i})]
    for node_id in network.gate_nodes():
        node = network.nodes[node_id]
        a = signal_node(node.fanin[0])
        b = signal_node(node.fanin[1])
        merged: List[FrozenSet[int]] = []
        seen = set()
        for cut_a in cuts[a]:
            for cut_b in cuts[b]:
                cut = cut_a | cut_b
                if len(cut) > k or cut in seen:
                    continue
                seen.add(cut)
                merged.append(cut)
        merged.sort(key=len)
        merged = merged[: cut_limit - 1]
        merged.append(frozenset({node_id}))
        cuts[node_id] = merged
    return cuts


def _cut_function(
    network: LogicNetwork, node: int, leaves: Tuple[int, ...]
) -> TruthTable:
    """Function of ``node`` in terms of the cut leaves."""
    k = len(leaves)
    values: Dict[int, TruthTable] = {0: TruthTable(k)}
    for j, leaf in enumerate(leaves):
        values[leaf] = TruthTable.projection(k, j)

    def compute(n: int) -> TruthTable:
        if n in values:
            return values[n]
        data = network.nodes[n]
        if data is None:
            raise ValueError(f"cut does not cover input node {n}")
        a = compute(signal_node(data.fanin[0]))
        if signal_complemented(data.fanin[0]):
            a = ~a
        b = compute(signal_node(data.fanin[1]))
        if signal_complemented(data.fanin[1]):
            b = ~b
        result = a & b if data.kind == "and" else a ^ b
        values[n] = result
        return result

    return compute(node)


def lut_map(network: LogicNetwork, k: int = 4) -> LutNetwork:
    """Map an XAG into k-LUTs.

    Strategy: enumerate bounded cuts, then cover the network from the
    outputs backwards, choosing for each required node the cut that
    minimizes (new nodes required, cut size).  This is the classical
    area-oriented greedy cover; optimality is not required, the tests
    verify functional correctness and the k-feasibility invariant.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    cuts = _enumerate_cuts(network, k)
    required = [
        signal_node(s)
        for s in network.outputs
        if not network.is_input(signal_node(s)) and signal_node(s) != 0
    ]
    chosen: Dict[int, FrozenSet[int]] = {}
    stack = list(required)
    while stack:
        node = stack.pop()
        if node in chosen or network.is_input(node) or node == 0:
            continue
        best = None
        best_cost = None
        for cut in cuts[node]:
            if cut == frozenset({node}) and network.nodes[node] is not None:
                # trivial cut of an internal node is not a valid cover
                # choice unless no other exists (it would be circular)
                continue
            new_nodes = sum(
                1
                for leaf in cut
                if leaf not in chosen
                and not network.is_input(leaf)
                and leaf != 0
            )
            cost = (new_nodes, len(cut))
            if best_cost is None or cost < best_cost:
                best, best_cost = cut, cost
        if best is None:
            # fall back: express through fanins directly
            node_data = network.nodes[node]
            best = frozenset(
                signal_node(f) for f in node_data.fanin
            )
        chosen[node] = best
        for leaf in best:
            if leaf not in chosen and not network.is_input(leaf) and leaf != 0:
                stack.append(leaf)

    # topological order of chosen LUTs
    order: List[int] = []
    visited = set()

    def visit(node: int) -> None:
        if node in visited or network.is_input(node) or node == 0:
            return
        visited.add(node)
        for leaf in chosen[node]:
            visit(leaf)
        order.append(node)

    for node in required:
        visit(node)

    luts = []
    for node in order:
        leaves = tuple(sorted(chosen[node]))
        table = _cut_function(network, node, leaves)
        luts.append(Lut(node, leaves, table))

    outputs = []
    for signal in network.outputs:
        node = signal_node(signal)
        outputs.append((node, signal_complemented(signal)))
    return LutNetwork(network.num_inputs, luts, outputs)
