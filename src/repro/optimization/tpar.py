"""T-count / T-depth optimization — the ``tpar`` command.

Implements the phase-folding core of the T-par algorithm [69]: the
circuit is split into maximal {CNOT, X, SWAP, phase} regions separated
by Hadamards (or other unsupported gates); within each region the phase
polynomial is computed and equal-parity phase gates merge, after which
the region is re-emitted with the merged rotations at their earliest
legal positions.  The result is unitary-equivalent (up to global
phase) with a T-count that never increases.

:func:`t_depth_estimate` additionally reports the T-depth achievable
by scheduling each region's T-parities into linearly-independent
layers (greedy matroid partitioning).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from .phase_polynomial import (
    _fold_into,
    _phase_terms,
    greedy_t_layers,
    is_region_gate,
)


def _regions(
    circuit: QuantumCircuit,
) -> Iterator[Tuple[List[Gate], Optional[Gate]]]:
    """Yield each maximal (maybe empty) phase region with the gate that
    ends it, ``None`` after the last."""
    region: List[Gate] = []
    for gate in circuit.gates:
        if is_region_gate(gate):
            region.append(gate)
        else:
            yield region, gate
            region = []
    yield region, None


def tpar_optimize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Phase-fold every CNOT+phase region of ``circuit``.

    This is the shell's ``tpar`` command (the T-par core [69]).

    Args:
        circuit: the Clifford+T (or phase-gate-bearing) circuit.

    Returns:
        A new circuit, unitary-equivalent up to global phase, whose
        T-count never exceeds the input's.
    """
    gates: List[Gate] = []
    for region, separator in _regions(circuit):
        if region:
            _fold_into(gates, circuit.num_qubits, region)
        if separator is not None:
            gates.append(separator)
    out = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, circuit.name + "_tpar"
    )
    out._check_wires(gates)
    out.gates = gates
    return out


def region_statistics(circuit: QuantumCircuit) -> List[Tuple[int, int, int]]:
    """Per-region (input T gates, folded T gates, T layers)."""
    stats: List[Tuple[int, int, int]] = []
    for region, _ in _regions(circuit):
        if not region:
            continue
        terms = _phase_terms(circuit.num_qubits, region)
        odd_masks = [mask for mask, (steps, _) in terms.items() if steps % 2]
        layers = greedy_t_layers(odd_masks, circuit.num_qubits)
        before = sum(1 for g in region if g.name in ("t", "tdg"))
        stats.append((before, len(odd_masks), len(layers)))
    return stats


def t_depth_estimate(circuit: QuantumCircuit) -> int:
    """Sum of per-region T-layer counts (matroid-partition bound)."""
    return sum(layers for _, _, layers in region_statistics(circuit))
