"""Backward-scan gate cancellation: the reference ``cancel``.

This is the package's original :func:`cancel_adjacent_gates`, kept
outside the package as an independent oracle.  Each incoming gate
scans the committed output backwards, skipping qubit-disjoint gates
(each skip builds two ``set`` objects), until it finds an inverse
partner, a mergeable rotation, a blocking gate, or a barrier/measure;
the whole pass repeats until a round changes nothing.  That costs
O(n^2) per round, which is why the package replaced it with a
per-qubit frontier.

``tests/differential/test_cancel_frontier.py`` checks the package's
one-pass frontier against it gate for gate.  The pairing rules are
copied here too, so a change to how the package judges a pair shows
up as a difference.
"""

from typing import List, Optional

from repro.core.circuit import QuantumCircuit
from repro.core.gates import ADJOINT_NAME, Gate, SELF_INVERSE


def _inverse_pair(a: Gate, b: Gate) -> bool:
    if a.qubits != b.qubits or a.cbits or b.cbits:
        return False
    if a.name == b.name and a.name in SELF_INVERSE and not a.params:
        return a.targets == b.targets and a.controls == b.controls
    if ADJOINT_NAME.get(a.name) == b.name:
        return a.targets == b.targets and a.controls == b.controls
    if (
        a.name == b.name
        and a.base_name in ("rx", "ry", "rz", "p")
        and abs(a.params[0] + b.params[0]) < 1e-12
    ):
        return True
    return False


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


def _gates_commute(a: Gate, b: Gate) -> bool:
    """Conservative disjointness-based commutation."""
    return not set(a.qubits) & set(b.qubits)


def cancel_adjacent_gates(
    circuit: QuantumCircuit, max_rounds: int = 10
) -> QuantumCircuit:
    """Cancel inverse pairs and merge rotations, round by round."""
    gates = [g for g in circuit.gates if g.name != "id"]
    for _ in range(max_rounds):
        out: List[Gate] = []
        changed = False
        for incoming in gates:
            if incoming.name == "barrier" or incoming.is_measurement:
                out.append(incoming)
                continue
            placed = False
            for j in range(len(out) - 1, -1, -1):
                other = out[j]
                if other.name == "barrier" or other.is_measurement:
                    break
                if _inverse_pair(other, incoming):
                    del out[j]
                    placed = True
                    changed = True
                    break
                merged = _mergeable_rotation(other, incoming)
                if merged is not None:
                    if merged.name == "id":
                        del out[j]
                    else:
                        out[j] = merged
                    placed = True
                    changed = True
                    break
                if not _gates_commute(other, incoming):
                    break
            if not placed:
                out.append(incoming)
        gates = out
        if not changed:
            break
    out = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, circuit.name + "_simp"
    )
    out.extend(g for g in gates if g.name != "id")
    return out

