"""Tier primitives behind the tiered equivalence checker.

Each helper here implements one *mechanism* — gate-list stripping,
classical bit-level simulation of permutation circuits, the composed
stabilizer-tableau identity test, the SWAP-relabelling replay of a
routing, random product-state probes — and stays policy-free: the
:class:`~.checker.EquivalenceChecker` decides which mechanism is the
cheapest sound one for a given pair of circuits and wraps the outcome
in a :class:`~.verdict.Verdict`.

Soundness notes (also in docs/ARCHITECTURE.md):

* stripping a common gate prefix/suffix preserves equivalence up to
  global phase exactly (``U_p A U_s ~ U_p B U_s  iff  A ~ B``);
* two Clifford circuits are equal up to global phase iff the composed
  circuit ``A ; B^-1`` conjugates every ``X_i`` and ``Z_i`` to itself
  with a ``+`` sign — the tableau identity test (exact, polynomial);
* a gate cancellation is equivalence-preserving when each fused group
  sits on identical wires with nothing between its members on those
  wires but groups fused into nothing nested inside the gap, and
  multiplies to its fused gate (or the identity) up to a phase:
  removing the innermost groups first makes every group adjacent;
* a routed circuit whose gates are the original ones on their
  contents' current wires, with ``swap`` gates between them, is the
  original followed by the wire permutation those swaps make;
* a randomized probe rejecting is always sound (a fidelity below one
  witnesses a semantic difference); a probe *accepting* is
  probabilistic, with escape probability falling exponentially in the
  probe count.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from ..simulator.stabilizer import StabilizerError, StabilizerState
from ..simulator.statevector import Statevector

#: Gate names the stabilizer tableau engine executes directly.
TABLEAU_GATES = frozenset(
    ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "cx", "cy", "cz", "swap")
)

#: Gate names acting as classical bit permutations (the reversible
#: vocabulary), executable by integer bit-simulation at any width.
CLASSICAL_GATES = frozenset(("x", "cx", "ccx", "mcx", "swap", "cswap"))

#: Gate names that are semantic no-ops for equivalence checking.
NOOP_GATES = frozenset(("id", "barrier"))


def semantic_gates(circuit: QuantumCircuit) -> List[Gate]:
    """Return the circuit's gates with identity no-ops removed.

    Args:
        circuit: the circuit to normalize.

    Returns:
        The gate list without ``id``/``barrier`` entries.
    """
    return [g for g in circuit.gates if g.name not in NOOP_GATES]


def strip_common_gates(
    before: Sequence[Gate], after: Sequence[Gate]
) -> Tuple[List[Gate], List[Gate]]:
    """Strip the longest common gate prefix and suffix.

    Equivalence up to global phase is preserved exactly: a shared
    unitary prefix or suffix cancels on both sides.  Optimization
    passes usually rewrite a region and keep the rest, so the
    remainders are often far smaller (and more often pure Clifford or
    narrow-support) than the full circuits.

    Args:
        before: gate list entering the pass (no-ops removed).
        after: gate list the pass produced (no-ops removed).

    Returns:
        ``(before_rest, after_rest)`` — the unmatched middles.
    """
    lo = 0
    hi = min(len(before), len(after))
    while lo < hi and before[lo] == after[lo]:
        lo += 1
    tail = 0
    while (
        tail < hi - lo
        and before[len(before) - 1 - tail] == after[len(after) - 1 - tail]
    ):
        tail += 1
    return (
        list(before[lo:len(before) - tail]),
        list(after[lo:len(after) - tail]),
    )


def gate_support(gates: Iterable[Gate]) -> Tuple[int, ...]:
    """Return the sorted set of qubits the gates act on.

    Args:
        gates: the gates to inspect.

    Returns:
        Sorted tuple of touched qubit indices.
    """
    touched = set()
    for gate in gates:
        touched.update(gate.targets)
        touched.update(gate.controls)
    return tuple(sorted(touched))


def compact_circuit(
    gates: Sequence[Gate], support: Sequence[int]
) -> QuantumCircuit:
    """Re-index gates onto a compact register covering ``support``.

    Gates acting as identity outside ``support`` are unchanged by the
    re-indexing, so two compacted gate lists are equivalent up to
    global phase iff the originals are.

    Args:
        gates: gates whose qubits all lie in ``support``.
        support: sorted qubit indices to compact onto ``0..k-1``.

    Returns:
        A ``len(support)``-qubit circuit with re-indexed gates.
    """
    index = {qubit: i for i, qubit in enumerate(support)}
    compact = QuantumCircuit(len(support))
    for gate in gates:
        compact.append(
            Gate(
                name=gate.name,
                targets=tuple(index[q] for q in gate.targets),
                controls=tuple(index[q] for q in gate.controls),
                params=gate.params,
                cbits=gate.cbits,
            )
        )
    return compact


# ----------------------------------------------------------------------
# block tier
# ----------------------------------------------------------------------
#: A gate relabelled onto a block's local wires, as plain hashable
#: data: ``(name, qubits, number of controls, params)``, with the
#: qubits controls first as in :attr:`Gate.qubits`.
LocalGate = Tuple[str, Tuple[int, ...], int, Tuple[float, ...]]


def relabel_block(
    gates: Sequence[Gate], own: Sequence[int], num_data: int
) -> Optional[Tuple[Tuple[LocalGate, ...], int]]:
    """Relabel one block of gates onto its local wires.

    The local wires are ``own`` in order, then the ancilla wires (at or
    above ``num_data``) the block touches, in increasing order.  Two
    blocks that are the same lowering on different wires relabel to
    the same local gates, which is what lets a verdict be memoized.

    Args:
        gates: the block's gates.
        own: the wires of the gate the block stands for.
        num_data: width of the data register; wires at or above it
            are ancillae.

    Returns:
        ``(local gates, clean)``: the relabelled gates and the count of
        ancilla wires; ``None`` when the block touches a data wire
        outside ``own`` (a borrowed wire, which the tier leaves to the
        whole-circuit check).
    """
    touched = set(chain.from_iterable(gate.qubits for gate in gates))
    touched.difference_update(own)
    extra = sorted(touched)
    if extra and extra[0] < num_data:
        return None
    index = {wire: i for i, wire in enumerate((*own, *extra))}.__getitem__
    local = tuple([
        (gate.name, tuple(map(index, gate.qubits)), len(gate.controls),
         gate.params)
        for gate in gates
    ])
    return local, len(extra)


def local_circuit(gates: Sequence[LocalGate], width: int) -> QuantumCircuit:
    """Build a ``width``-qubit circuit from relabelled block gates."""
    circuit = QuantumCircuit(width)
    for name, qubits, num_controls, params in gates:
        circuit.append(
            Gate(name, qubits[num_controls:], qubits[:num_controls], params)
        )
    return circuit


# ----------------------------------------------------------------------
# rewrite tier
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# stabilizer tier
# ----------------------------------------------------------------------
def as_tableau_gate(gate: Gate) -> Optional[Gate]:
    """Translate a gate into the tableau vocabulary, if possible.

    Diagonal rotations at multiples of ``pi/2`` are Clifford but not
    native tableau gates; they translate exactly (up to global phase)
    to S/Z/S'.  Gates already in :data:`TABLEAU_GATES` pass through.

    Args:
        gate: the gate to translate.

    Returns:
        An equivalent tableau-vocabulary gate, or ``None`` when the
        gate is not Clifford (or not translatable).
    """
    name = gate.name
    if name in TABLEAU_GATES:
        return gate
    if name in ("rz", "p") and gate.params:
        quarter = _quarter_turns(gate.params[0])
        if quarter is None:
            return None
        replacement = (None, "s", "z", "sdg")[quarter]
        if replacement is None:
            return None  # caller treats a full turn as droppable
        return Gate(name=replacement, targets=gate.targets)
    if name == "cp" and gate.params:
        if _quarter_turns(gate.params[0]) == 2:
            return Gate(
                name="cz", targets=gate.targets, controls=gate.controls
            )
    return None


def _quarter_turns(angle: float) -> Optional[int]:
    """Return ``angle / (pi/2) mod 4`` when it is a near-exact integer."""
    turns = angle / (math.pi / 2)
    nearest = round(turns)
    if abs(turns - nearest) > 1e-9:
        return None
    return nearest % 4


def tableau_gates(gates: Sequence[Gate]) -> Optional[List[Gate]]:
    """Translate a gate list into the tableau vocabulary.

    Args:
        gates: the gates to translate (no-ops already removed).

    Returns:
        The translated list, or ``None`` when any gate falls outside
        the Clifford group the tableau engine executes.
    """
    out: List[Gate] = []
    for gate in gates:
        if (
            gate.name in ("rz", "p")
            and gate.params
            and _quarter_turns(gate.params[0]) == 0
        ):
            continue  # a full turn is the identity up to phase
        translated = as_tableau_gate(gate)
        if translated is None:
            return None
        out.append(translated)
    return out


def tableau_identity_failure(
    gates: Sequence[Gate], num_qubits: int
) -> Optional[str]:
    """Check that a Clifford gate sequence composes to a phase.

    Applies the gates to a fresh CHP tableau and checks that every
    destabilizer row is still ``+X_i`` and every stabilizer row still
    ``+Z_i`` — i.e. the sequence conjugates every Pauli generator to
    itself with a positive sign, which holds iff its unitary is a
    global phase times the identity.

    Args:
        gates: tableau-vocabulary gates of the composed circuit.
        num_qubits: register width.

    Returns:
        ``None`` when the sequence is a global phase, else a message
        naming the first generator that moved.
    """
    state = StabilizerState(num_qubits)
    try:
        for gate in gates:
            state.apply_gate(gate)
    except StabilizerError as exc:  # pragma: no cover - guarded upstream
        return str(exc)
    n = num_qubits
    identity = StabilizerState(n)
    # Fast path: compare the packed uint64 planes wholesale; unpacking
    # only happens on failure, to name the first generator that moved.
    if (
        np.array_equal(state.xs, identity.xs)
        and np.array_equal(state.zs, identity.zs)
        and not state.r[: 2 * n].any()
    ):
        return None
    moved_rows = np.nonzero(
        np.any(state.xs != identity.xs, axis=1)
        | np.any(state.zs != identity.zs, axis=1)
        | (state.r != 0)
    )[0]
    row = int(moved_rows[0]) if moved_rows.size else 2 * n
    if row < n:
        return f"composed circuit moves the Pauli generator X_{row}"
    return f"composed circuit moves the Pauli generator Z_{row - n}"


def clifford_equivalence_failure(
    before: Sequence[Gate], after: Sequence[Gate], num_qubits: int
) -> Optional[str]:
    """Decide Clifford equivalence up to global phase, exactly.

    Composes ``before ; after^-1`` and runs the tableau identity
    test.  Polynomial in width and gate count — sound and complete
    for Clifford circuits at any width.

    Args:
        before: tableau-vocabulary gates entering the pass.
        after: tableau-vocabulary gates the pass produced.
        num_qubits: register width of both circuits.

    Returns:
        ``None`` when equivalent up to global phase, else a message.
    """
    composed = list(before)
    for gate in reversed(after):
        composed.append(gate.dagger())
    return tableau_identity_failure(composed, num_qubits)


# ----------------------------------------------------------------------
# permutation tier
# ----------------------------------------------------------------------
def is_classical(circuit: QuantumCircuit) -> bool:
    """Whether every gate acts as a classical bit permutation.

    Args:
        circuit: the circuit to inspect.

    Returns:
        True when the circuit is X/CX/Toffoli/SWAP-only (ignoring
        no-ops), so integer bit-simulation reproduces it exactly.
    """
    return all(
        g.name in CLASSICAL_GATES or g.name in NOOP_GATES
        for g in circuit.gates
    )


def apply_classical_gates(circuit: QuantumCircuit, value: int) -> int:
    """Propagate a basis state through a classical (permutation) circuit.

    Args:
        circuit: an X/CX/Toffoli/SWAP-only circuit.
        value: input basis state as an integer (qubit 0 = LSB).

    Returns:
        The output basis state integer.

    Raises:
        ValueError: when a gate is not a classical permutation gate.
    """
    for gate in circuit.gates:
        name = gate.name
        if name in NOOP_GATES:
            continue
        if name not in CLASSICAL_GATES:
            raise ValueError(f"gate {name!r} is not a classical gate")
        if name == "swap" or name == "cswap":
            if gate.controls and not _bits_set(value, gate.controls):
                continue
            a, b = gate.targets
            bit_a = (value >> a) & 1
            bit_b = (value >> b) & 1
            if bit_a != bit_b:
                value ^= (1 << a) | (1 << b)
            continue
        # x / cx / ccx / mcx: flip the target when all controls are set
        if _bits_set(value, gate.controls):
            value ^= 1 << gate.targets[0]
    return value


def _bits_set(value: int, positions: Sequence[int]) -> bool:
    """Whether every bit of ``value`` at ``positions`` is one."""
    return all((value >> p) & 1 for p in positions)


# ----------------------------------------------------------------------
# randomized probe tier
# ----------------------------------------------------------------------
def random_product_state(
    num_qubits: int, rng: np.random.Generator
) -> Statevector:
    """Draw a random product state with random relative phases.

    Each qubit gets independent Bloch angles, so the state is (almost
    surely) not an eigenstate of any non-phase unitary — in
    particular diagonal-phase differences (a stray Z or S) shift the
    probe's fidelity away from one.

    Args:
        num_qubits: register width.
        rng: seeded generator (derandomized probes are reproducible).

    Returns:
        The probe :class:`~repro.simulator.statevector.Statevector`.
    """
    data = np.array([1.0], dtype=complex)
    for _ in range(num_qubits):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        qubit = np.array(
            [math.cos(theta / 2.0),
             complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
            dtype=complex,
        )
        data = np.kron(qubit, data)
    return Statevector(num_qubits, data)


def overlap_magnitude(a: Statevector, b: Statevector) -> float:
    """Return ``|<a|b>|`` — 1.0 iff equal up to a global phase.

    Args:
        a: first normalized state.
        b: second normalized state.

    Returns:
        The overlap magnitude in ``[0, 1]``.
    """
    return float(abs(np.vdot(a.data, b.data)))


def widen_state(state: Statevector, num_qubits: int) -> Statevector:
    """Embed a state into a wider register with clean high ancillae.

    Args:
        state: the state on the low ``n`` qubits.
        num_qubits: total width (``>= state.num_qubits``).

    Returns:
        The state ``|psi>|0...0>`` on ``num_qubits`` qubits.
    """
    data = np.zeros(1 << num_qubits, dtype=complex)
    data[: 1 << state.num_qubits] = state.data
    return Statevector(num_qubits, data)


# ----------------------------------------------------------------------
# swap tier
# ----------------------------------------------------------------------
def swap_relabel_failure(
    original: Sequence[Gate],
    routed: Sequence[Gate],
    position_of: Sequence[int],
) -> Optional[str]:
    """Replay ``routed`` as ``original`` on wires its swaps relabel.

    Content ``c`` starts on wire ``c``.  Each routed gate must equal
    (``Gate`` equality, so ``cbits`` and params too) the next original
    gate remapped onto its contents' current wires, which is tried
    first; else it must be a plain two-wire ``swap``, which exchanges
    its wires' contents.  Every original gate must be matched, and the
    swaps must leave content ``c`` on wire ``position_of[c]``.

    Returns:
        ``None``, or why not, naming the first routed gate that fails.
    """
    width = len(position_of)
    wire_of, content_at = list(range(width)), list(range(width))
    matched = 0
    for index, gate in enumerate(routed):
        expected = (
            original[matched].remap(wire_of)
            if matched < len(original) else None
        )
        if gate == expected:
            matched += 1
        elif (
            len(gate.targets) == 2
            and gate == Gate("swap", gate.targets)
            and all(0 <= wire < width for wire in gate.targets)
        ):
            a, b = gate.targets
            content_at[a], content_at[b] = content_at[b], content_at[a]
            wire_of[content_at[a]], wire_of[content_at[b]] = a, b
        else:
            wanted = "a further original gate" if expected is None else (
                f"original gate {matched} ({expected!r})"
            )
            return (
                f"routed gate {index} ({gate!r}) is neither {wanted} "
                "nor a swap"
            )
    if matched < len(original):
        return (
            f"routed circuit ends after {len(routed)} gates, before "
            f"original gate {matched} ({original[matched]!r})"
        )
    if wire_of != list(position_of):
        return f"the swaps leave the contents on wires {tuple(wire_of)}"
    return None
