"""Gate-cancellation certificate check: the reference ``rewrite_groups``.

This is the package's original :func:`repro.verify.tiers.rewrite_groups`,
kept outside the package as an independent oracle.  It precomputes a
fence count per input prefix, compares every kept gate with ``==`` and
keeps one stack per wire it has ever seen, so every kept gate probes
each of its wires.  The package's version walks the gates once with
identity-first comparison and a table of open groups only.

``tests/verify/test_rewrite_reference.py`` runs both on the
certificates ``cancel`` hands out and on randomly mutated ones, and
requires identical return values.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.gates import Gate

#: Gate names nothing may be moved across (a gate-cancellation fence).
FENCE_GATES = frozenset(("barrier", "measure"))


def rewrite_groups(
    before: Sequence[Gate], after: Sequence[Gate], groups: Sequence
) -> Optional[List[Tuple[Tuple[Gate, ...], Gate]]]:
    """Validate a gate-cancellation certificate against both gate lists.

    ``groups`` claims that ``after`` is ``before`` with each group of
    input gates ``(members, slot)`` fused: into the gate
    ``after[slot]``, put where the group's first member stood, or into
    nothing when ``slot`` is ``None``; every ``id`` gate dropped; and
    every other gate kept in order.  The claim is checked here, except
    for what each group's gates multiply to:

    * members are increasing input indices, each index in at most one
      group; the members of a group have identical, non-empty
      ``qubits``, no ``cbits``, and are unitary;
    * no barrier or measurement lies strictly between a group's first
      and last member;
    * every gate strictly between two consecutive members that shares
      a wire with the group belongs to a group fused into nothing whose
      members all lie in that gap (``id`` gates aside);
    * the output is exactly as claimed above, and a fused gate has its
      group's qubits, no ``cbits``, and is unitary.

    Removing the innermost groups first then leaves every group's
    members adjacent on their wires, so the circuits agree whenever
    each group multiplies to its reference, up to a phase.

    Args:
        before: the gates entering the pass.
        after: the gates the pass produced.
        groups: the certificate.

    Returns:
        One ``(member gates, reference)`` per group, the reference
        being the fused gate, or an ``id`` gate on the group's qubits
        for a group fused into nothing; ``None`` when any claim fails.
    """
    count = len(before)
    group_of: List[Optional[int]] = [None] * count
    fences = [0]
    for gate in before:
        fences.append(fences[-1] + (gate.name in FENCE_GATES))
    for g, (members, slot) in enumerate(groups):
        if not members or (slot is not None and type(slot) is not int):
            return None
        previous = -1
        for i in members:
            if type(i) is not int or not previous < i < count:
                return None
            if group_of[i] is not None:
                return None
            group_of[i] = g
            previous = i
        first, last = members[0], members[-1]
        qubits = before[first].qubits
        if not qubits or fences[last] != fences[first + 1]:
            return None
        for i in members:
            gate = before[i]
            if gate.qubits != qubits or gate.cbits or not gate.is_unitary:
                return None
    # one walk checks the nesting (on each wire the open groups form a
    # stack) and the output (kept gates in order, a fused gate at its
    # group's first slot)
    stacks: Dict[int, List[int]] = {}
    blocks = []
    position = 0
    for i, gate in enumerate(before):
        g = group_of[i]
        if g is None:
            if gate.name == "id":
                continue
            for q in gate.qubits:
                if stacks.get(q):
                    return None
            if position >= len(after) or after[position] != gate:
                return None
            position += 1
            continue
        members, slot = groups[g]
        first = i == members[0]
        for q in gate.qubits:
            stack = stacks.setdefault(q, [])
            if first:
                if stack and slot is not None:
                    return None
                stack.append(g)
            elif not stack or stack[-1] != g:
                return None
            if i == members[-1]:
                stack.pop()
        if not first:
            continue
        if slot is None:
            reference = Gate("id", gate.qubits)
        else:
            if slot != position or position >= len(after):
                return None
            reference = after[position]
            if (
                reference.qubits != gate.qubits
                or reference.cbits
                or not reference.is_unitary
            ):
                return None
            position += 1
        blocks.append((tuple(before[m] for m in members), reference))
    if position != len(after):
        return None
    return blocks
