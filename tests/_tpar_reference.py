"""Object-per-region phase folding: the reference ``tpar``.

This is the package's original phase-folding core, kept outside the
package as an oracle.  Each region builds a :class:`PhaseRegion` with a
:class:`PhaseTerm` object per parity, :func:`fold_region` creates a
fresh ``Gate`` for every merged phase, and :func:`tpar_optimize`
re-appends every output gate through ``QuantumCircuit.extend`` (one
wire check per gate).  The package replaced it with two loops over
plain per-qubit lists and shared phase gates
(:mod:`repro.optimization.phase_polynomial`).

``tests/differential/test_tpar_fold.py`` checks the package's fold
against it gate for gate, and ``tests/optimization/
test_phase_polynomial.py`` pins the analysis through it.
"""

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.phase_polynomial import (
    LINEAR_GATES,
    PHASE_STEPS,
    STEP_GATES,
    is_region_gate,
)


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
                    # rz(theta) = e^{-i theta/2} p(theta); global phase
                    # is dropped
                    steps = 0
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


def tpar_optimize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Phase-fold every CNOT+phase region, one region object at a time."""
    out = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, circuit.name + "_tpar"
    )
    region: List[Gate] = []

    def flush() -> None:
        if not region:
            return
        folded = fold_region(circuit.num_qubits, region)
        out.extend(folded)
        region.clear()

    for gate in circuit.gates:
        if is_region_gate(gate):
            region.append(gate)
        else:
            flush()
            out.append(gate)
    flush()
    return out


def greedy_t_layers(terms: List[int], num_vars: int) -> List[List[int]]:
    """Greedy matroid partitioning of parity masks into T layers."""
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
