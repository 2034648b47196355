"""Circuit simplification — the ``revsimp`` command.

Two levels:

* :func:`simplify_reversible` — peephole rules on MCT networks:
  adjacent equal gates cancel (MCTs are involutions), and gates may
  slide past each other when they commute (disjoint target/control
  interaction), enabling more cancellations; NOT-pair absorption into
  control polarities.
* :func:`cancel_adjacent_gates` — on quantum circuits: adjacent
  inverse pairs (h-h, x-x, t-tdg, cx-cx, ...) cancel and adjacent
  rotations on the same wire merge, with commutation-aware adjacency
  (gates on disjoint qubits are transparent).  One pass keeps a
  per-qubit frontier of the latest live gates; a gate's partner is
  always the frontier gate on every qubit it touches, so removing it
  exposes nothing new and the single pass is already the fixpoint.
  :func:`cancel_with_groups` is the same pass that also lists which
  input gates it fused, recorded by that run's own loop: the
  certificate the rewrite tier of the checker validates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.circuit import QuantumCircuit
from ..core.gates import ADJOINT_NAME, Gate, SELF_INVERSE
from ..synthesis.reversible import MctGate, ReversibleCircuit


# ----------------------------------------------------------------------
# reversible (MCT) simplification
# ----------------------------------------------------------------------
#: fixpoint iteration bound of :func:`simplify_reversible`
MAX_ROUNDS = 10


def _mct_commute(a: MctGate, b: MctGate) -> bool:
    """Sufficient commutation condition for two MCT gates.

    They commute if neither gate's target is a control of the other
    (same-target gates always commute; identical gates trivially)."""
    if a.target == b.target:
        return True
    if a.target in b.controls:
        return False
    if b.target in a.controls:
        return False
    return True


def _absorb_not(not_gate: MctGate, gate: MctGate) -> Optional[MctGate]:
    """X(line) conjugation: flips the polarity of a matching control."""
    line = not_gate.target
    if line == gate.target or line not in gate.controls:
        return None
    polarity = tuple(
        not p if ctl == line else p
        for ctl, p in zip(gate.controls, gate.polarity)
    )
    return MctGate(gate.target, gate.controls, polarity)


def simplify_reversible(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Cancel/merge MCT gates; preserves the circuit's permutation.

    This is the shell's ``revsimp`` command: equal gates that can
    reach each other through commuting neighbors cancel pairwise, and
    X-g-X sandwiches absorb into a polarity flip of g, for at most
    :data:`MAX_ROUNDS` rounds.

    Args:
        circuit: the MCT cascade to simplify.

    Returns:
        A new cascade realizing the same permutation with at most as
        many gates.
    """
    gates = list(circuit.gates)

    def cancel_once() -> bool:
        """Remove one equal pair reachable through commuting gates."""
        for i in range(len(gates)):
            for j in range(i + 1, len(gates)):
                if gates[i] == gates[j]:
                    del gates[j]
                    del gates[i]
                    return True
                if not _mct_commute(gates[i], gates[j]):
                    break
        return False

    def absorb_once() -> bool:
        """Rewrite one X-g-X sandwich into g with flipped polarity."""
        for i in range(len(gates) - 2):
            if gates[i].num_controls == 0 and gates[i] == gates[i + 2]:
                absorbed = _absorb_not(gates[i], gates[i + 1])
                if absorbed is not None:
                    gates[i:i + 3] = [absorbed]
                    return True
        return False

    for _ in range(MAX_ROUNDS):
        changed = False
        while cancel_once():
            changed = True
        while absorb_once():
            changed = True
        if not changed:
            break
    out = ReversibleCircuit(circuit.num_lines, circuit.name + "_simp")
    out.extend(gates)
    return out


# ----------------------------------------------------------------------
# quantum gate cancellation
# ----------------------------------------------------------------------
def _inverse_pair(a: Gate, b: Gate) -> bool:
    # equal qubits and targets imply equal controls; zero-sum rotations merge
    if a.qubits != b.qubits or a.targets != b.targets or a.cbits or b.cbits:
        return False
    return ADJOINT_NAME.get(a.name) == b.name or (
        a.name == b.name and a.name in SELF_INVERSE and not a.params
    )


def _mergeable_rotation(a: Gate, b: Gate) -> Optional[Gate]:
    if (
        a.name == b.name
        and a.base_name in ("rx", "ry", "rz", "p")
        and a.targets == b.targets
        and a.controls == b.controls
        and not a.cbits
        and not b.cbits
    ):
        angle = a.params[0] + b.params[0]
        if abs(angle) < 1e-12:
            return Gate("id", a.targets)
        return Gate(a.name, a.targets, a.controls, (angle,))
    return None


def cancel_adjacent_gates(circuit: QuantumCircuit) -> QuantumCircuit:
    """Cancel inverse pairs and merge rotations in one frontier pass.

    Args:
        circuit: the quantum circuit to clean up.

    Returns:
        A new, unitary-equivalent circuit with at most as many gates
        (identity gates dropped, adjacent inverses removed, adjacent
        same-axis rotations merged).
    """
    return _kept(circuit, _frontier(circuit.gates, None))


def _kept(
    circuit: QuantumCircuit, out: List[Optional[Gate]]
) -> QuantumCircuit:
    """The output circuit of ``circuit``'s frontier slots ``out``."""
    result = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, circuit.name + "_simp"
    )
    # every kept gate is an input gate or a merge on an input gate's
    # wires, so the input's range checks hold for the output
    result.gates = [g for g in out if g is not None]
    return result


def cancel_with_groups(
    circuit: QuantumCircuit,
) -> Tuple[QuantumCircuit, Tuple[Tuple[Tuple[int, ...], Optional[int]], ...]]:
    """:func:`cancel_adjacent_gates` plus which input gates it fused.

    The second item is the pass's certificate for rewrite-wise
    verification, taken from the same loop that built the output: one
    ``(members, slot)`` per group of input gates fused together, with
    the members' input indices in increasing order and ``slot`` the
    index of the output gate the group became (a merged rotation), or
    ``None`` when it became nothing (an inverse pair, a zero-sum
    rotation chain).  Every other input gate is kept in order, except
    ``id`` gates, which are dropped.
    """
    members: List[List[int]] = []
    out = _frontier(circuit.gates, members)
    groups = []
    slot = 0
    for gate, group in zip(out, members):
        if len(group) > 1:
            groups.append((tuple(group), None if gate is None else slot))
        if gate is not None:
            slot += 1
    return _kept(circuit, out), tuple(groups)


def _frontier(
    gates: Sequence[Gate], members: Optional[List[List[int]]]
) -> List[Optional[Gate]]:
    """The cancellation loop: output slots, ``None`` where a gate went.

    When ``members`` is a list, it gets one entry per output slot: the
    input indices of the gates that slot holds or fused, in increasing
    order.
    """
    # A gate slides back past every gate it shares no qubit with, and
    # nothing crosses a barrier or a measurement (the fence).  So an
    # incoming gate's only possible partner is the latest live gate on
    # any of its qubits: the highest top of its qubits' index stacks,
    # if that lies after the fence.  An inverse pair or a mergeable
    # rotation acts on exactly the partner's qubits, so the partner is
    # the top of every stack it is on: deleting or merging it exposes
    # no gate that a second pass could pair.  One pass is the fixpoint.
    out: List[Optional[Gate]] = []
    stacks: Dict[int, List[int]] = {}
    stack_of = stacks.get
    adjoint = ADJOINT_NAME.get
    fence = -1
    for i, incoming in enumerate(gates):
        name = incoming.name
        if name == "id":
            continue
        if name == "barrier" or name == "measure":
            fence = len(out)
            out.append(incoming)
            if members is not None:
                members.append([i])
            continue
        qubits = incoming.qubits
        if qubits:
            top = -1
            for q in qubits:
                stack = stack_of(q)
                if stack and stack[-1] > top:
                    top = stack[-1]
            # both predicates need equal or adjoint names, so most
            # gates have no candidate at all
            candidates: Sequence[int] = ()
            if top > fence:
                partner = out[top].name
                if partner == name or adjoint(partner) == name:
                    candidates = (top,)
        else:
            # a gate on no qubits slides past every gate: each earlier
            # qubit-less gate after the fence is a candidate, latest first
            candidates = [
                j for j in range(len(out) - 1, fence, -1)
                if out[j] is not None and not out[j].qubits
            ]
        for j in candidates:
            other = out[j]
            # a candidate on qubits passed this test above
            if other.name != name and adjoint(other.name) != name:
                continue
            if _inverse_pair(other, incoming):
                merged = None
            else:
                merged = _mergeable_rotation(other, incoming)
                if merged is None:
                    continue
            if merged is None or merged.name == "id":
                out[j] = None
                for q in qubits:
                    stacks[q].pop()
            else:
                out[j] = merged
            if members is not None:
                members[j].append(i)
            break
        else:
            slot = len(out)
            for q in qubits:
                stack = stack_of(q)
                if stack is None:
                    stacks[q] = [slot]
                else:
                    stack.append(slot)
            out.append(incoming)
            if members is not None:
                members.append([i])
    return out
