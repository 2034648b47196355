"""Transformation-based synthesis (TBS) — the ``tbs`` command.

The Miller–Maslov–Dueck algorithm [43]: walk the truth table of a
reversible function in input order and, at each row, append Toffoli
gates that make the row correct without disturbing the rows already
fixed.  The classic variant works purely on the output side; the
bidirectional variant may instead fix the row from the input side when
that is cheaper, typically yielding smaller cascades.

Gate-safety invariant (why fixed rows stay fixed): every appended gate
has its positive controls on the 1-bits of a value ``v >= x`` while all
fixed rows are the identity on values ``< x``; a control set that is a
bit-subset of ``k`` implies ``v <= k``, so no gate can fire on a fixed
row.
"""

from __future__ import annotations

from typing import List, Tuple

from ..boolean.permutation import BitPermutation
from .reversible import MctGate, ReversibleCircuit


def _bits(value: int) -> List[int]:
    out = []
    bit = 0
    while value >> bit:
        if (value >> bit) & 1:
            out.append(bit)
        bit += 1
    return out


def _fix_value(start: int, goal: int) -> Tuple[List[MctGate], int]:
    """Gates (in application order) transforming ``start`` into ``goal``.

    Phase 1 turns on the bits of ``goal & ~start`` (controls = ones of
    the current value); phase 2 turns off ``start & ~goal`` (controls =
    ones of the current value minus the target).  All controls
    positive.
    """
    gates: List[MctGate] = []
    current = start
    for bit in _bits(goal & ~current):
        controls = tuple(_bits(current))
        gates.append(MctGate(bit, controls))
        current |= 1 << bit
    for bit in _bits(current & ~goal):
        controls = tuple(b for b in _bits(current) if b != bit)
        gates.append(MctGate(bit, controls))
        current &= ~(1 << bit)
    assert current == goal
    return gates, len(gates)


def transformation_based_synthesis(
    permutation: BitPermutation,
) -> ReversibleCircuit:
    """Basic (output-side) MMD synthesis.

    Returns a reversible circuit whose permutation equals the input.
    """
    n = permutation.num_bits
    perm = list(permutation.image)
    output_gates: List[MctGate] = []  # in discovery order
    for x in range(1 << n):
        y = perm[x]
        if y == x:
            continue
        gates, _ = _fix_value(y, x)
        # each gate acts on the *output* side: perm <- g o perm
        for gate in gates:
            perm = [gate.apply(value) for value in perm]
            output_gates.append(gate)
    assert perm == list(range(1 << n))
    # perm_final = G_k o ... o G_1 o f = I  =>  f = G_1 o ... o G_k,
    # i.e. in application order the last-discovered gate runs first.
    circuit = ReversibleCircuit(n, name="tbs")
    circuit.extend(reversed(output_gates))
    return circuit


def bidirectional_synthesis(permutation: BitPermutation) -> ReversibleCircuit:
    """Bidirectional MMD: fix each row from the cheaper side.

    For row ``x`` with current output ``y = p(x)`` and current preimage
    ``z = p^{-1}(x)``, either transform ``y -> x`` at the output or
    ``x -> z`` at the input, choosing the variant needing fewer gates
    (ties go to the output side, as in the original paper).
    """
    n = permutation.num_bits
    perm = list(permutation.image)
    output_gates: List[MctGate] = []   # discovery order, output side
    input_gates: List[MctGate] = []    # application order, input side
    for x in range(1 << n):
        y = perm[x]
        if y == x:
            continue
        z = perm.index(x)
        out_candidate, out_cost = _fix_value(y, x)
        in_candidate, in_cost = _fix_value(x, z)
        if out_cost <= in_cost:
            for gate in out_candidate:
                perm = [gate.apply(value) for value in perm]
                output_gates.append(gate)
        else:
            # input-side composite m maps x -> z (gates applied in
            # order); update perm as p'(v) = p(m(v))
            composite = in_candidate
            new_perm = list(perm)
            for v in range(1 << n):
                value = v
                for gate in composite:
                    value = gate.apply(value)
                new_perm[v] = perm[value]
            perm = new_perm
            # circuit order for this composite is its inverse: gates
            # reversed (each MCT is self-inverse); composites stay in
            # discovery order (earlier rows act first on the input side)
            input_gates.extend(reversed(composite))
        assert perm[x] == x
    assert perm == list(range(1 << n))
    # p_final = H o f o m_1 o m_2 o ... = I, so
    # f = H^-1 o (m_1 o m_2 o ...)^-1: the inverted input composites run
    # first (earliest row innermost), then the inverted output gates.
    circuit = ReversibleCircuit(n, name="tbs-bidir")
    circuit.extend(input_gates)
    circuit.extend(reversed(output_gates))
    return circuit
