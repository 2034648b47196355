"""Device-topology routing — targeting real chips (Sec. VII).

Running the Fig. 4 circuit "on the IBM Quantum Experience chip"
implies one more compilation stage the paper delegates to the vendor
stack: two-qubit gates only execute between *coupled* qubits, so the
circuit must be mapped onto the device graph with SWAP insertion.

This module provides that substrate:

* :class:`CouplingMap` — an undirected device graph with shortest-path
  queries (the early IBM QE devices are provided as presets);
* :func:`route_circuit` — a greedy SWAP router: gates execute when
  their qubits are adjacent under the current logical->physical layout,
  otherwise SWAPs move them together along a shortest path;
* :func:`verify_routing` — semantic check: the routed circuit is the
  original's gates on moving wires, with SWAPs between them, every
  two-qubit gate on a coupled pair, ending at the recorded layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple
)

from ..core.circuit import QuantumCircuit


class RoutingError(RuntimeError):
    """Raised for unroutable circuits or malformed coupling maps."""


class CouplingMap:
    """Undirected device connectivity graph."""

    def __init__(self, num_qubits: int, edges: Sequence[Tuple[int, int]]):
        self.num_qubits = num_qubits
        self.edges: Set[FrozenSet[int]] = set()
        self.neighbors: Dict[int, Set[int]] = {
            q: set() for q in range(num_qubits)
        }
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
                raise RoutingError(f"bad edge ({a}, {b})")
            self.edges.add(frozenset((a, b)))
            self.neighbors[a].add(b)
            self.neighbors[b].add(a)
        self._distances: Optional[List[List[int]]] = None

    # presets ------------------------------------------------------------
    @classmethod
    def ibm_qx2(cls) -> "CouplingMap":
        """The 5-qubit IBM QE 'bowtie' (ibmqx2/sparrow) topology."""
        return cls(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])

    @classmethod
    def ibm_qx4(cls) -> "CouplingMap":
        """The 5-qubit ibmqx4 (raven) topology."""
        return cls(5, [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)])

    @classmethod
    def line(cls, num_qubits: int) -> "CouplingMap":
        """Linear nearest-neighbour chain."""
        return cls(num_qubits, [(q, q + 1) for q in range(num_qubits - 1)])

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        edges = [(q, (q + 1) % num_qubits) for q in range(num_qubits)]
        return cls(num_qubits, edges)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        """2D lattice (the 16/17-qubit device generation)."""
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(rows * cols, edges)

    @classmethod
    def full(cls, num_qubits: int) -> "CouplingMap":
        edges = [
            (a, b)
            for a in range(num_qubits)
            for b in range(a + 1, num_qubits)
        ]
        return cls(num_qubits, edges)

    # queries ------------------------------------------------------------
    def connected(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def distance(self, a: int, b: int) -> int:
        if self._distances is None:
            self._distances = self._all_pairs()
        d = self._distances[a][b]
        if d < 0:
            raise RoutingError(f"qubits {a} and {b} are disconnected")
        return d

    def shortest_path(self, a: int, b: int) -> List[int]:
        """BFS path from a to b inclusive."""
        if a == b:
            return [a]
        parents = {a: a}
        queue = deque([a])
        while queue:
            node = queue.popleft()
            for nxt in self.neighbors[node]:
                if nxt not in parents:
                    parents[nxt] = node
                    if nxt == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    queue.append(nxt)
        raise RoutingError(f"qubits {a} and {b} are disconnected")

    def _all_pairs(self) -> List[List[int]]:
        out = []
        for start in range(self.num_qubits):
            dist = [-1] * self.num_qubits
            dist[start] = 0
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for nxt in self.neighbors[node]:
                    if dist[nxt] < 0:
                        dist[nxt] = dist[node] + 1
                        queue.append(nxt)
            out.append(dist)
        return out


@dataclass(frozen=True)
class RoutingResult:
    """Routed circuit plus layout bookkeeping (read-only; layouts are
    tuples, and :meth:`freeze` freezes the circuit too)."""

    circuit: QuantumCircuit
    final_layout: Tuple[int, ...]      # logical -> physical at the end
    swap_count: int
    #: full device-wire permutation: content initially at physical wire
    #: c ends the routed circuit at wire position_of[c]
    position_of: Tuple[int, ...] = ()

    @property
    def initial_layout(self) -> Tuple[int, ...]:
        """Logical -> physical at the start: routing starts from the
        identity layout, so logical qubit ``q`` is on wire ``q``."""
        return tuple(range(len(self.final_layout)))

    def freeze(self) -> "RoutingResult":
        """Freeze the routed circuit and return ``self``."""
        self.circuit.freeze()
        return self


def route_circuit(
    circuit: QuantumCircuit, coupling: CouplingMap
) -> RoutingResult:
    """Map ``circuit`` onto ``coupling`` by greedy SWAP insertion.

    Only 1- and 2-qubit gates (plus measurements/barriers) are
    routable; run the Clifford+T mapping first.  When a two-qubit gate
    spans non-adjacent physical qubits, SWAPs walk one operand along a
    shortest path until they meet.  Routing starts from the identity
    layout (logical qubit ``q`` on physical qubit ``q``).

    Args:
        circuit: the (already lowered) circuit to place.
        coupling: the device connectivity graph.

    Returns:
        A :class:`RoutingResult` with the legal circuit, the final
        layout, the SWAP count and the full wire permutation: every
        routed gate is an input gate on its qubits' current wires or
        an inserted ``swap``, the form :func:`verify_routing` checks.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise RoutingError(
            f"circuit needs {circuit.num_qubits} qubits, device has "
            f"{coupling.num_qubits}"
        )
    routed = QuantumCircuit(
        coupling.num_qubits, circuit.num_clbits, circuit.name + "_routed"
    )
    swap_count = 0
    # content initially on wire c (logical qubit c for c < n) is on wire
    # position_of[c]; its first n entries are the logical->physical layout
    position_of = list(range(coupling.num_qubits))
    for gate in circuit.gates:
        qubits = gate.qubits
        if gate.name != "barrier" and len(qubits) != 1:
            if len(qubits) != 2:
                raise RoutingError(
                    f"gate {gate.name!r} spans {len(qubits)} qubits; map "
                    "to 1/2-qubit gates before routing"
                )
            a, b = position_of[qubits[0]], position_of[qubits[1]]
            if not coupling.connected(a, b):
                # walk `a` down a shortest path until adjacent to b
                for step in coupling.shortest_path(a, b)[1:-1]:
                    routed.swap(a, step)
                    swap_count += 1
                    moved = position_of.index(step)
                    position_of[qubits[0]], position_of[moved] = step, a
                    a = step
        routed.append(gate.remap(position_of))
    return RoutingResult(
        circuit=routed,
        final_layout=tuple(position_of[:circuit.num_qubits]),
        swap_count=swap_count,
        position_of=tuple(position_of),
    )


def verify_routing(
    original: QuantumCircuit,
    result: RoutingResult,
    edges: Iterable[Iterable[int]],
) -> bool:
    """Check that ``result`` is an exact routing of ``original``.

    The :class:`~repro.verify.EquivalenceChecker`'s routing check
    (tier ``swap``): the routed gates are the original ones,
    measurements, barriers and resets included, on wires the SWAPs
    relabel, ending at ``result.position_of`` and ``final_layout``;
    every routed two-wire gate sits on one of the device's ``edges``
    (a :class:`CouplingMap`'s ``edges``), and ``result.swap_count``
    counts the SWAPs.  Exact at any device width.
    """
    from ..verify.checker import default_checker

    return default_checker().check_routing(original, result, edges).passed
