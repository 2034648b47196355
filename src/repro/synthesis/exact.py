"""Exact (minimum-gate-count) reversible synthesis for small functions.

Breadth-first search over the Cayley graph of the symmetric group on
``2^n`` states generated by all MCT gates (any target, any subset of
the other lines as controls, any polarities).  This is the optimality
baseline of the synthesis-comparison bench: practical up to ``n = 3``
(8! = 40320 permutations), matching the exact-synthesis literature the
paper cites [49].
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Dict, List, Optional, Tuple

from ..boolean.permutation import BitPermutation
from .reversible import MctGate, ReversibleCircuit


def all_mct_gates(num_lines: int) -> List[MctGate]:
    """Every MCT gate on ``num_lines`` lines (all control configs)."""
    gates = []
    for target in range(num_lines):
        others = [line for line in range(num_lines) if line != target]
        # each other line: absent / positive control / negative control
        for config in product((None, True, False), repeat=len(others)):
            controls = []
            polarity = []
            for line, state in zip(others, config):
                if state is None:
                    continue
                controls.append(line)
                polarity.append(state)
            gates.append(MctGate(target, tuple(controls), tuple(polarity)))
    return gates


def _gate_tables(gates, num_lines: int):
    """Precompute, per gate, the permutation it induces on values."""
    tables = []
    for gate in gates:
        control_mask = gate.control_mask()
        polarity_mask = gate.polarity_mask()
        flip = 1 << gate.target
        table = tuple(
            v ^ flip if (v & control_mask) == polarity_mask else v
            for v in range(1 << num_lines)
        )
        tables.append(table)
    return tables


def exact_synthesis(
    permutation: BitPermutation, max_gates: int = 12
) -> Optional[ReversibleCircuit]:
    """Minimum-gate MCT circuit by BFS, or None if above ``max_gates``.

    Only feasible for ``num_bits <= 3`` (the search space is ``2^n!``).
    """
    n = permutation.num_bits
    if n > 3:
        raise ValueError("exact synthesis supported only up to 3 lines")
    identity = tuple(range(1 << n))
    start = tuple(permutation.image)
    if start == identity:
        return ReversibleCircuit(n, name="exact")
    gates = all_mct_gates(n)
    tables = _gate_tables(gates, n)
    # search backwards: compose gates on the output side until identity
    parents: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], MctGate]] = {}
    queue = deque([(start, 0)])
    parents[start] = (start, None)  # type: ignore[assignment]
    while queue:
        state, depth = queue.popleft()
        if depth >= max_gates:
            continue
        for gate, table in zip(gates, tables):
            nxt = tuple(table[y] for y in state)
            if nxt in parents:
                continue
            parents[nxt] = (state, gate)
            if nxt == identity:
                return _reconstruct(parents, start, identity, n)
            queue.append((nxt, depth + 1))
    return None


def _reconstruct(parents, start, identity, num_lines: int) -> ReversibleCircuit:
    # gates g_1..g_k were applied output-side: g_k o ... o g_1 o f = I,
    # hence f = g_1 o ... o g_k: application order is discovery order
    # reversed -- but as we walk back from identity we already visit
    # them last-to-first, so plain collection gives circuit order.
    gates = []
    state = identity
    while state != start:
        state, gate = parents[state]
        gates.append(gate)
    circuit = ReversibleCircuit(num_lines, name="exact")
    # walking back yields g_k first; f = g_1 o ... o g_k means g_k acts
    # first in the circuit, so keep this order
    circuit.extend(gates)
    return circuit
