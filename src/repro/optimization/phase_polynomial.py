"""Phase-polynomial analysis of {CNOT, X, phase} subcircuits.

A circuit over {CNOT, X, T, T', S, S', Z, Rz} computes an affine-linear
map of the inputs while accumulating phases e^{i theta f(x)} on affine
functions ``f`` of the inputs — the *phase polynomial*.  Two phase
gates whose wire carries the same affine function at their positions
can be merged, reducing T-count ("phase folding", the core of T-par
[69]).

:class:`PhaseRegion` extracts the polynomial of such a region;
:func:`fold_region` rebuilds the region with merged phases, placing
each merged rotation at the first position where its parity occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate

#: Gates a phase region may contain.
LINEAR_GATES = ("cx", "x", "swap")
#: phase-gate name -> multiple of pi/4
PHASE_STEPS = {"t": 1, "s": 2, "z": 4, "sdg": 6, "tdg": 7}
#: multiple of pi/4 (mod 8) -> canonical gate sequence
STEP_GATES = {
    0: (),
    1: ("t",),
    2: ("s",),
    3: ("s", "t"),
    4: ("z",),
    5: ("z", "t"),
    6: ("sdg",),
    7: ("tdg",),
}


def is_region_gate(gate: Gate) -> bool:
    """Return whether ``gate`` belongs in a phase-polynomial region.

    Regions are maximal {CNOT, X, SWAP, phase} blocks; anything else
    (Hadamard, measurement, ...) terminates the region.
    """
    if gate.name in LINEAR_GATES or gate.name in PHASE_STEPS:
        return True
    return gate.name in ("rz", "p") and not gate.controls


@dataclass
class PhaseTerm:
    """Accumulated phase on one linear function."""

    mask: int               # linear part (complement folded into angle)
    steps: int = 0          # multiple of pi/4 (mod 8)
    angle: float = 0.0      # arbitrary residual angle (from rz/p)
    first_index: int = -1   # earliest gate index where the parity occurs

    def is_trivial(self) -> bool:
        return self.steps % 8 == 0 and abs(self.angle) < 1e-12


class PhaseRegion:
    """Phase polynomial of a {CNOT, X, phase} gate list."""

    def __init__(self, num_qubits: int, gates: List[Gate]):
        self.num_qubits = num_qubits
        self.gates = gates
        self.terms: Dict[int, PhaseTerm] = {}
        self._analyze()

    def _analyze(self) -> None:
        # wire i carries parity e_i initially, complement bit separate
        masks = [1 << i for i in range(self.num_qubits)]
        flips = [False] * self.num_qubits
        for index, gate in enumerate(self.gates):
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
            elif name in PHASE_STEPS or name in ("rz", "p"):
                qubit = gate.targets[0]
                mask = masks[qubit]
                if name in PHASE_STEPS:
                    steps = PHASE_STEPS[name]
                    angle = 0.0
                else:
                    steps = 0
                    angle = gate.params[0]
                    if name == "rz":
                        # rz(theta) = e^{-i theta/2} p(theta); global
                        # phase is dropped
                        angle = gate.params[0]
                if flips[qubit]:
                    # phase on NOT(f): e^{i theta (1-f)}; global phase
                    # e^{i theta} dropped, sign of f flips
                    steps = (-steps) % 8
                    angle = -angle
                term = self.terms.get(mask)
                if term is None:
                    term = PhaseTerm(mask, first_index=index)
                    self.terms[mask] = term
                term.steps = (term.steps + steps) % 8
                term.angle += angle
            else:
                raise ValueError(f"gate {name!r} not allowed in region")
        self.final_masks = masks
        self.final_flips = flips

    def t_count(self) -> int:
        """T-gates needed after folding: one per odd-step parity."""
        return sum(1 for term in self.terms.values() if term.steps % 2 == 1)

    def nontrivial_terms(self) -> List[PhaseTerm]:
        return [t for t in self.terms.values() if not t.is_trivial()]


def fold_region(num_qubits: int, gates: List[Gate]) -> List[Gate]:
    """Rebuild a region with merged phase gates.

    The linear structure (CNOT/X/SWAP gates) is kept verbatim; each
    merged phase term is emitted at the first index where its parity
    appears on some wire.
    """
    region = PhaseRegion(num_qubits, gates)
    pending: Dict[int, PhaseTerm] = {
        term.mask: term for term in region.nontrivial_terms()
    }

    masks = [1 << i for i in range(num_qubits)]
    flips = [False] * num_qubits
    out: List[Gate] = []

    def emit_if_pending(qubit: int) -> None:
        mask = masks[qubit]
        term = pending.pop(mask, None)
        if term is None:
            return
        steps = term.steps % 8
        angle = term.angle
        if flips[qubit]:
            steps = (-steps) % 8
            angle = -angle
        for name in STEP_GATES[steps]:
            out.append(Gate(name, (qubit,)))
        if abs(angle) > 1e-12:
            angle = math.remainder(angle, 2 * math.pi)
            if abs(angle) > 1e-12:
                out.append(Gate("p", (qubit,), params=(angle,)))

    for qubit in range(num_qubits):
        emit_if_pending(qubit)
    for gate in gates:
        name = gate.name
        if name in LINEAR_GATES:
            out.append(gate)
            if name == "cx":
                c, t = gate.controls[0], gate.targets[0]
                masks[t] ^= masks[c]
                flips[t] ^= flips[c]
                emit_if_pending(t)
            elif name == "x":
                flips[gate.targets[0]] ^= True
            elif name == "swap":
                a, b = gate.targets
                masks[a], masks[b] = masks[b], masks[a]
                flips[a], flips[b] = flips[b], flips[a]
        # phase gates are dropped; their contribution is in `pending`
    if pending:
        raise AssertionError("unplaced phase terms after folding")
    return out


def greedy_t_layers(terms: List[int], num_vars: int) -> List[List[int]]:
    """Partition parity masks into layers of linearly independent sets.

    This is the matroid-partitioning step of T-par [69] solved greedily:
    each layer can be executed as one T-stage (after a suitable CNOT
    network), so ``len(layers)`` estimates the achievable T-depth.
    """
    layers: List[List[int]] = []
    basis_per_layer: List[List[int]] = []
    for mask in terms:
        placed = False
        for layer, basis in zip(layers, basis_per_layer):
            if len(layer) >= num_vars:
                continue
            if _independent(mask, basis):
                layer.append(mask)
                _insert(mask, basis)
                placed = True
                break
        if not placed:
            layers.append([mask])
            basis_per_layer.append([])
            _insert(mask, basis_per_layer[-1])
    return layers


def _independent(mask: int, basis: List[int]) -> bool:
    value = mask
    for vec in basis:
        value = min(value, value ^ vec)
    return value != 0


def _insert(mask: int, basis: List[int]) -> None:
    value = mask
    for vec in basis:
        value = min(value, value ^ vec)
    if value:
        basis.append(value)
        basis.sort(reverse=True)
