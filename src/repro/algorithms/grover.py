"""Grover search with automatically compiled predicate oracles.

Sec. I cites Grover's algorithm [5] and the substantial cost of
"implementing the defining predicate in a reversible way" [6]; this
module closes that loop: the predicate is an arbitrary Python function
or truth table, compiled to a phase oracle by the ESOP flow, wrapped in
the standard diffusion operator, and iterated ``~ pi/4 sqrt(N/M)``
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .. import engines
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..simulator.statevector import Statevector
from .hidden_shift import phase_oracle_circuit


def diffusion_circuit(num_qubits: int) -> QuantumCircuit:
    """The inversion-about-the-mean operator 2|s><s| - I."""
    circuit = QuantumCircuit(num_qubits, name="diffusion")
    for q in range(num_qubits):
        circuit.h(q)
        circuit.x(q)
    # multi-controlled Z on all qubits
    circuit.mcz(list(range(num_qubits - 1)), num_qubits - 1)
    for q in range(num_qubits):
        circuit.x(q)
        circuit.h(q)
    return circuit


def optimal_iterations(num_vars: int, num_solutions: int) -> int:
    """floor(pi/4 sqrt(N/M)), at least 1."""
    if num_solutions <= 0:
        raise ValueError("need at least one solution")
    ratio = (1 << num_vars) / num_solutions
    return max(1, int(math.floor(math.pi / 4 * math.sqrt(ratio))))


def grover_circuit(table: TruthTable, iterations: int) -> QuantumCircuit:
    """Build the Grover search circuit for a truth-table oracle.

    Args:
        table: marks the solutions (f(x) = 1).
        iterations: Grover iteration count.

    Returns:
        The prepared circuit with final measurements on all qubits.
    """
    n = table.num_vars
    circuit = QuantumCircuit(n, n, name="grover")
    for q in range(n):
        circuit.h(q)
    oracle = phase_oracle_circuit(table, n)
    diffusion = diffusion_circuit(n)
    for _ in range(iterations):
        circuit.compose(oracle)
        circuit.compose(diffusion)
    for q in range(n):
        circuit.measure(q, q)
    return circuit


@dataclass
class GroverResult:
    measured: int
    is_solution: bool
    success_probability: float
    iterations: int
    circuit: QuantumCircuit


def solve_grover(
    predicate: Union[Callable, TruthTable],
    seed: Optional[int] = None,
) -> GroverResult:
    """Search for an input satisfying ``predicate``.

    The predicate is normalized through the compiler facade's
    frontend layer, so any function-shaped workload
    :func:`repro.compile` accepts works here too: a truth table, a
    Python predicate, a Boolean expression string, an ESOP cube list,
    or a ``(Bdd, node)`` pair.
    """
    from ..compiler.frontends import as_truth_table

    table = as_truth_table(predicate)
    if table.bits == 0:
        raise ValueError("predicate has no satisfying assignment")
    iterations = optimal_iterations(table.num_vars, table.count_ones())
    circuit = grover_circuit(table, iterations)
    result = engines.run("statevector", circuit, shots=1, seed=seed)
    measured = result.most_frequent()
    # exact success probability from the final state
    unitary_part = QuantumCircuit(circuit.num_qubits)
    for gate in circuit.gates:
        if not gate.is_measurement:
            unitary_part.append(gate)
    state = Statevector(circuit.num_qubits).evolve(unitary_part)
    probability = sum(
        state.probability_of(x)
        for x in range(table.size)
        if table(x)
    )
    return GroverResult(
        measured=measured,
        is_solution=bool(table(measured)),
        success_probability=probability,
        iterations=iterations,
        circuit=circuit,
    )
