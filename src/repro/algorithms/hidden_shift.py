"""The Boolean hidden shift algorithm (Sec. VI, Fig. 3).

Given oracle access to ``g(x) = f(x ^ s)`` and to the dual bent
function ``f~``, the circuit

    |0^n>  --H^n--  U_g  --H^n--  U_f~  --H^n--  measure --> |s>

recovers the hidden shift deterministically with a single query to
each oracle (for perfect gates).

Two oracle constructions are provided, matching the paper's two
examples:

* ``method="truth_table"`` — ESOP-compiled phase oracles of the
  explicit tables of ``g`` and ``f~`` (the Fig. 4 flow);
* ``method="mm"`` — the structured Maiorana–McFarland realization of
  Fig. 7/8: the permutation pi is synthesized as a reversible circuit
  (transformation-based for U_g, decomposition-based for the
  inverse, as in the paper), conjugating an inner-product CZ layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .. import engines
from ..boolean.bent import HiddenShiftInstance
from ..boolean.esop import minimize_esop
from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..frameworks.projectq.oracles import (
    permutation_oracle_gates,
    phase_oracle_gates,
)
from ..simulator.statevector import Statevector
from ..synthesis.reversible import ReversibleCircuit


def _synthesize_permutation(
    permutation: BitPermutation, method: str
) -> ReversibleCircuit:
    """Synthesize an oracle permutation through the compiler facade.

    The cascade is compiled via ``repro.compile`` at the raw reversible
    level (no simplification), which is gate-for-gate what calling the
    synthesis entry point directly produces — but repeated oracle
    builds for the same permutation replay from the shared pass cache.
    """
    from ..compiler import compile as facade_compile, targets

    result = facade_compile(
        permutation,
        target=targets.TOFFOLI.with_(
            optimization_level=0, synthesis=method
        ),
    )
    return result.reversible


@dataclass
class HiddenShiftCircuit:
    """Built circuit plus query bookkeeping."""

    circuit: QuantumCircuit
    instance: HiddenShiftInstance
    g_queries: int
    dual_queries: int
    method: str


def phase_oracle_circuit(
    table: TruthTable, num_qubits: int, wires: Optional[Sequence[int]] = None
) -> QuantumCircuit:
    """Diagonal circuit for ``(-1)^{table(x)}`` on the given wires."""
    if wires is None:
        wires = list(range(table.num_vars))
    circuit = QuantumCircuit(num_qubits)
    cubes = minimize_esop(table)
    circuit.extend(phase_oracle_gates(cubes, list(wires)))
    return circuit


def hidden_shift_circuit(
    instance: HiddenShiftInstance, method: str = "truth_table"
) -> HiddenShiftCircuit:
    """Build the Fig. 3 circuit for a hidden shift instance."""
    n = instance.num_vars
    circuit = QuantumCircuit(n, n, name=f"hidden-shift-{method}")

    def hadamard_layer() -> None:
        for q in range(n):
            circuit.h(q)

    hadamard_layer()
    if method == "truth_table":
        circuit.compose(phase_oracle_circuit(instance.g_table(), n))
    elif method == "mm":
        _mm_shifted_oracle(circuit, instance)
    else:
        raise ValueError(f"unknown method {method!r}")
    hadamard_layer()
    if method == "truth_table":
        circuit.compose(phase_oracle_circuit(instance.dual_table(), n))
    else:
        _mm_dual_oracle(circuit, instance)
    hadamard_layer()
    for q in range(n):
        circuit.measure(q, q)
    return HiddenShiftCircuit(
        circuit=circuit,
        instance=instance,
        g_queries=1,
        dual_queries=1,
        method=method,
    )


def _x_layer(circuit: QuantumCircuit, mask: int, wires: Sequence[int]) -> None:
    for i, wire in enumerate(wires):
        if (mask >> i) & 1:
            circuit.x(wire)


def _cz_layer(
    circuit: QuantumCircuit, x_wires: Sequence[int], y_wires: Sequence[int]
) -> None:
    for xw, yw in zip(x_wires, y_wires):
        circuit.cz(xw, yw)


def _mm_shifted_oracle(
    circuit: QuantumCircuit, instance: HiddenShiftInstance
) -> None:
    """U_g = X^s U_f X^s with the structured MM realization of U_f.

    U_f on |x>|y>: phase h(y), then map y -> pi(y), CZ layer
    (-1)^{x . y'}, then map back: total (-1)^{x.pi(y) ^ h(y)}.
    """
    mm = instance.function
    half = mm.half_vars
    x_wires = list(range(half))
    y_wires = list(range(half, 2 * half))
    perm_circuit = _synthesize_permutation(mm.pi, "tbs")
    all_wires = x_wires + y_wires

    _x_layer(circuit, instance.shift, all_wires)
    if mm.h.bits:
        circuit.compose(
            phase_oracle_circuit(mm.h, circuit.num_qubits, wires=y_wires)
        )
    circuit.extend(permutation_oracle_gates(perm_circuit, y_wires))
    _cz_layer(circuit, x_wires, y_wires)
    # invert the permutation by replaying the same gates in reverse
    circuit.extend(
        reversed(permutation_oracle_gates(perm_circuit, y_wires))
    )
    _x_layer(circuit, instance.shift, all_wires)


def _mm_dual_oracle(
    circuit: QuantumCircuit, instance: HiddenShiftInstance
) -> None:
    """U_f~ via pi^{-1} on the x register (Fig. 7's second block).

    Following the paper, a circuit for pi is synthesized (with
    decomposition-based synthesis) and *inverted with Dagger*
    instead of synthesizing pi^{-1} directly.
    """
    mm = instance.function
    half = mm.half_vars
    x_wires = list(range(half))
    y_wires = list(range(half, 2 * half))
    perm_circuit = _synthesize_permutation(mm.pi, "dbs")
    inverse_gates = list(
        reversed(permutation_oracle_gates(perm_circuit, x_wires))
    )
    forward_gates = permutation_oracle_gates(perm_circuit, x_wires)

    circuit.extend(inverse_gates)  # x -> pi^{-1}(x)
    if mm.h.bits:
        circuit.compose(
            phase_oracle_circuit(mm.h, circuit.num_qubits, wires=x_wires)
        )
    _cz_layer(circuit, x_wires, y_wires)
    circuit.extend(forward_gates)


@dataclass
class HiddenShiftResult:
    """Outcome of a hidden shift run."""

    measured_shift: int
    expected_shift: int
    success: bool
    probability: float
    built: HiddenShiftCircuit


def solve_hidden_shift(
    instance: HiddenShiftInstance, method: str = "truth_table"
) -> HiddenShiftResult:
    """Build and simulate the circuit; noiseless runs are deterministic."""
    built = hidden_shift_circuit(instance, method=method)
    result = engines.run("statevector", built.circuit, shots=1)
    measured = result.most_frequent()
    probability = _shift_probability(built.circuit, instance.shift)
    return HiddenShiftResult(
        measured_shift=measured,
        expected_shift=instance.shift,
        success=measured == instance.shift,
        probability=probability,
        built=built,
    )


def _shift_probability(circuit: QuantumCircuit, shift: int) -> float:
    """Exact probability of measuring the correct shift."""
    unitary_part = QuantumCircuit(circuit.num_qubits)
    for gate in circuit.gates:
        if gate.is_measurement or gate.name == "barrier":
            continue
        unitary_part.append(gate)
    state = Statevector(circuit.num_qubits).evolve(unitary_part)
    return state.probability_of(shift)


def deterministic_success_sweep(
    half_vars: int, trials: int, seed: int = 0, method: str = "truth_table"
) -> List[HiddenShiftResult]:
    """Random-instance sweep (the paper's determinism claim)."""
    results = []
    for trial in range(trials):
        instance = HiddenShiftInstance.random(
            half_vars, seed=seed + trial
        )
        results.append(solve_hidden_shift(instance, method=method))
    return results
