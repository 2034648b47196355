"""Decomposition-based synthesis (DBS) — the ``dbs`` command.

Young-subgroup decomposition after De Vos and Van Rentergem [47], the
algorithm the paper selects for the permutation oracle of the
Maiorana–McFarland example (``PermutationOracle(pi, synth=revkit.dbs)``,
Fig. 7).  For each line ``i`` the permutation ``P`` is split as

    P = L o C o R

where ``L`` and ``R`` are single-target gates on line ``i`` and ``C``
preserves line ``i``.  Iterating over all lines leaves the identity,
yielding at most ``2n`` single-target gates, each lowered to MCTs via
ESOP covers.

The split is found by propagating XOR constraints over the pairs
``(x, x ^ e_i)``: choosing whether ``R`` swaps an input pair and ``L``
an output pair is a 2-coloring of the cycle structure, which always
exists for a bijection.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from .reversible import ReversibleCircuit
from .single_target import SingleTargetGate, single_target_gates_to_circuit


def _split_on_line(
    perm: List[int], num_bits: int, line: int
) -> Tuple[TruthTable, List[int], TruthTable]:
    """Decompose perm = L o C o R on ``line``.

    Returns (r_function, middle_perm, l_function) where the functions
    are over the *other* lines in ascending order.
    """
    bit = 1 << line
    rest_bits = num_bits - 1

    def rest_index(value: int) -> int:
        low = value & (bit - 1)
        high = (value >> (line + 1)) << line
        return low | high

    def with_bit(rest: int, b: int) -> int:
        low = rest & (bit - 1)
        high = (rest >> line) << (line + 1)
        return low | high | (b << line)

    # XOR constraint propagation over r(u) / l(v)
    inverse = [0] * len(perm)
    for x, y in enumerate(perm):
        inverse[y] = x
    r_val: Dict[int, int] = {}
    l_val: Dict[int, int] = {}
    for u_start in range(1 << rest_bits):
        if u_start in r_val:
            continue
        r_val[u_start] = 0
        queue = deque([("r", u_start)])
        while queue:
            kind, node = queue.popleft()
            if kind == "r":
                u = node
                # pair (u,0) and (u,1) map to outputs with rest v0/v1
                y0 = perm[with_bit(u, 0)]
                y1 = perm[with_bit(u, 1)]
                for b, y in ((0, y0), (1, y1)):
                    v = rest_index(y)
                    c = (y >> line) & 1
                    # requirement: c ^ l(v) = b ^ r(u)
                    needed = c ^ b ^ r_val[u]
                    if v in l_val:
                        if l_val[v] != needed:
                            raise AssertionError(
                                "inconsistent 2-coloring (not a bijection?)"
                            )
                    else:
                        l_val[v] = needed
                        queue.append(("l", v))
            else:
                v = node
                # outputs (v,0) and (v,1) come from inputs with rest u
                for c in (0, 1):
                    x = inverse[with_bit(v, c)]
                    u = rest_index(x)
                    b = (x >> line) & 1
                    needed = c ^ b ^ l_val[v]
                    if u in r_val:
                        if r_val[u] != needed:
                            raise AssertionError("inconsistent 2-coloring")
                    else:
                        r_val[u] = needed
                        queue.append(("r", u))

    r_table = TruthTable(rest_bits)
    for u, value in r_val.items():
        if value:
            r_table.bits |= 1 << u
    l_table = TruthTable(rest_bits)
    for v, value in l_val.items():
        if value:
            l_table.bits |= 1 << v

    # middle permutation C = L o P o R (L, R self-inverse)
    def apply_r(x: int) -> int:
        return x ^ (bit if r_table(rest_index(x)) else 0)

    def apply_l(y: int) -> int:
        return y ^ (bit if l_table(rest_index(y)) else 0)

    middle = [0] * len(perm)
    for x in range(len(perm)):
        middle[x] = apply_l(perm[apply_r(x)])
    return r_table, middle, l_table


def young_subgroup_decomposition(
    permutation: BitPermutation,
) -> Tuple[List[SingleTargetGate], List[SingleTargetGate]]:
    """Full decomposition into single-target gates.

    Returns (left_gates, right_gates) such that, in application order,
    the circuit is ``right_gates`` (line 0 first) followed by
    ``left_gates`` reversed (line n-1 first).
    """
    n = permutation.num_bits
    perm = list(permutation.image)
    rights: List[SingleTargetGate] = []
    lefts: List[SingleTargetGate] = []
    for line in range(n):
        other_lines = tuple(i for i in range(n) if i != line)
        r_table, perm, l_table = _split_on_line(perm, n, line)
        if r_table.bits:
            rights.append(SingleTargetGate(line, other_lines, r_table))
        if l_table.bits:
            lefts.append(SingleTargetGate(line, other_lines, l_table))
        # invariant: perm now preserves bits 0..line
        assert all(
            ((perm[x] ^ x) >> b) & 1 == 0
            for x in range(1 << n)
            for b in range(line + 1)
        )
    assert perm == list(range(1 << n))
    return lefts, rights


def decomposition_based_synthesis(
    permutation: BitPermutation, effort: str = "medium"
) -> ReversibleCircuit:
    """Synthesize via Young subgroups, lowering to MCT gates.

    The result realizes exactly the input permutation (verified by the
    test-suite against :meth:`ReversibleCircuit.permutation`).
    """
    lefts, rights = young_subgroup_decomposition(permutation)
    gates = list(rights) + list(reversed(lefts))
    circuit = single_target_gates_to_circuit(
        gates, permutation.num_bits, effort=effort
    )
    circuit.name = "dbs"
    return circuit
