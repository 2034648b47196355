"""Phase-polynomial analysis of {CNOT, X, phase} subcircuits.

A circuit over {CNOT, X, T, T', S, S', Z, Rz} computes an affine-linear
map of the inputs while accumulating phases e^{i theta f(x)} on affine
functions ``f`` of the inputs — the *phase polynomial*.  Two phase
gates whose wire carries the same affine function at their positions
can be merged, reducing T-count ("phase folding", the core of T-par
[69]).

:func:`_phase_terms` extracts a region's polynomial over int-bitmask
parities; :func:`_fold_into` re-emits the region with merged phases,
each at the first position where its parity occurs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Tuple

from ..core.gates import Gate

#: Gates a phase region may contain.
LINEAR_GATES = ("cx", "x", "swap")
#: phase-gate name -> multiple of pi/4
PHASE_STEPS = {"t": 1, "s": 2, "z": 4, "sdg": 6, "tdg": 7}
#: multiple of pi/4 (mod 8) -> canonical gate sequence
STEP_GATES = (
    (), ("t",), ("s",), ("s", "t"), ("z",), ("z", "t"), ("sdg",), ("tdg",)
)
#: names that always join a region (``rz``/``p`` join when uncontrolled)
_REGION_NAMES = frozenset(LINEAR_GATES) | frozenset(PHASE_STEPS)


def is_region_gate(gate: Gate) -> bool:
    """Return whether ``gate`` belongs in a phase-polynomial region.

    Regions are maximal {CNOT, X, SWAP, phase} blocks; anything else
    (Hadamard, measurement, ...) terminates the region.
    """
    name = gate.name
    return name in _REGION_NAMES or (
        (name == "rz" or name == "p") and not gate.controls
    )


def _phase_terms(num_qubits: int, gates: List[Gate]) -> Dict[int, List]:
    """The phase polynomial of a region: ``mask -> [steps, angle]``.

    Wire ``i`` starts on the parity ``1 << i``; an X flips a wire's
    complement bit, and a phase on a complemented parity ``NOT(f)`` is
    recorded on ``f`` with its sign flipped (the global phase is
    dropped).  ``steps`` is a multiple of pi/4 mod 8 and ``angle`` the
    residual ``rz``/``p`` angle (``rz`` is ``p`` up to global phase).
    Terms are in first-occurrence order.
    """
    masks = [1 << q for q in range(num_qubits)]
    flips = [False] * num_qubits
    terms: Dict[int, List] = {}
    for gate in gates:
        name = gate.name
        if name == "cx":
            c, t = gate.controls[0], gate.targets[0]
            masks[t] ^= masks[c]
            flips[t] ^= flips[c]
        elif name == "x":
            flips[gate.targets[0]] ^= True
        elif name == "swap":
            a, b = gate.targets
            masks[a], masks[b] = masks[b], masks[a]
            flips[a], flips[b] = flips[b], flips[a]
        else:
            qubit = gate.targets[0]
            if name in PHASE_STEPS:
                steps, angle = PHASE_STEPS[name], 0.0
            else:  # rz or p
                steps, angle = 0, gate.params[0]
            if flips[qubit]:
                steps = -steps % 8
                angle = -angle
            term = terms.get(masks[qubit])
            if term is None:
                terms[masks[qubit]] = [steps, angle]
            else:
                term[0] = (term[0] + steps) % 8
                term[1] += angle
    return terms


@lru_cache(maxsize=1024)
def _step_gates(steps: int, qubit: int) -> Tuple[Gate, ...]:
    """The shared canonical gates of ``steps`` pi/4 on ``qubit``."""
    return tuple(Gate(name, (qubit,)) for name in STEP_GATES[steps])


def _fold_into(out: List[Gate], num_qubits: int, gates: List[Gate]) -> None:
    """Append a region to ``out`` with its phase gates merged.

    The linear structure (CNOT/X/SWAP gates) is kept verbatim; each
    non-trivial phase term is emitted on the first wire where its
    parity appears: at the region's start, or right after the CNOT
    that makes it.
    """
    pending = {
        mask: term
        for mask, term in _phase_terms(num_qubits, gates).items()
        if term[0] or not abs(term[1]) < 1e-12
    }
    if not pending:
        out.extend(g for g in gates if g.name in LINEAR_GATES)
        return
    masks = [1 << q for q in range(num_qubits)]
    flips = [False] * num_qubits

    def place(qubit: int, term: List) -> None:
        steps, angle = term
        if flips[qubit]:
            steps = -steps % 8
            angle = -angle
        out.extend(_step_gates(steps, qubit))
        if abs(angle) > 1e-12:
            angle = math.remainder(angle, 2 * math.pi)
            if abs(angle) > 1e-12:
                out.append(Gate("p", (qubit,), params=(angle,)))

    for qubit in range(num_qubits):
        term = pending.pop(masks[qubit], None)
        if term is not None:
            place(qubit, term)
    for gate in gates:
        name = gate.name
        if name == "cx":
            out.append(gate)
            c, t = gate.controls[0], gate.targets[0]
            masks[t] ^= masks[c]
            flips[t] ^= flips[c]
            term = pending.pop(masks[t], None)
            if term is not None:
                place(t, term)
        elif name == "x":
            out.append(gate)
            flips[gate.targets[0]] ^= True
        elif name == "swap":
            out.append(gate)
            a, b = gate.targets
            masks[a], masks[b] = masks[b], masks[a]
            flips[a], flips[b] = flips[b], flips[a]
        # phase gates are dropped; their contribution is in `pending`
    if pending:
        raise AssertionError("unplaced phase terms after folding")


def greedy_t_layers(terms: List[int], num_vars: int) -> List[List[int]]:
    """Partition parity masks into layers of linearly independent sets.

    This is the matroid-partitioning step of T-par [69] solved greedily:
    each layer can be executed as one T-stage (after a suitable CNOT
    network), so ``len(layers)`` estimates the achievable T-depth.
    """
    layers: List[List[int]] = []
    bases: List[List[int]] = []  # per layer, reduced and sorted descending
    for mask in terms:
        for layer, basis in zip(layers, bases):
            if len(layer) >= num_vars:
                continue
            value = mask
            for vec in basis:
                value = min(value, value ^ vec)
            if value:
                layer.append(mask)
                basis.append(value)
                basis.sort(reverse=True)
                break
        else:
            layers.append([mask])
            bases.append([mask] if mask else [])
    return layers
