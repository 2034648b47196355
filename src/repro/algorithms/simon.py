"""Simon's problem on the XOR-oracle (Bennett) compilation path.

The hidden shift algorithm uses *phase* oracles; Simon's algorithm
exercises the other oracle style the paper's Sec. V compiles —
``U|x>|y> = |x>|y ^ f(x)>`` via ESOP-based reversible synthesis.

Given a 2-to-1 function with ``f(x) = f(x ^ s)``, each run of

    H^n (x) I ; U_f ; H^n (x) I ; measure x-register

yields a uniformly random ``z`` with ``z . s = 0``.  Collecting
``n - 1`` independent equations and solving over GF(2) recovers ``s``
with O(n) quantum queries — exponentially fewer than classical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .. import engines
from ..boolean.truth_table import MultiTruthTable
from ..core.circuit import QuantumCircuit
from ..synthesis.esop_based import esop_synthesis


@dataclass(frozen=True)
class SimonInstance:
    """A 2-to-1 function f with hidden XOR mask s."""

    function: MultiTruthTable
    secret: int

    @classmethod
    def random(cls, num_bits: int, seed: Optional[int] = None) -> "SimonInstance":
        """Random instance: pair up x and x^s, assign distinct values."""
        rng = random.Random(seed)
        secret = rng.randrange(1, 1 << num_bits)
        values = {}
        available = list(range(1 << num_bits))
        rng.shuffle(available)
        next_value = iter(available)
        for x in range(1 << num_bits):
            if x not in values:
                value = next(next_value)
                values[x] = value
                values[x ^ secret] = value
        tables = MultiTruthTable.from_function(
            num_bits, num_bits, lambda x: values[x]
        )
        return cls(tables, secret)

    def verify_promise(self) -> bool:
        image = self.function.image()
        for x in range(len(image)):
            if image[x] != image[x ^ self.secret]:
                return False
        # 2-to-1 (secret != 0)
        return len(set(image)) == len(image) // 2


def simon_circuit(instance: SimonInstance) -> QuantumCircuit:
    """One sampling round: H / U_f (compiled by ESOP synthesis) / H."""
    n = instance.function.num_vars
    oracle = esop_synthesis(instance.function)
    circuit = QuantumCircuit(oracle.num_lines, n, name="simon")
    for q in range(n):
        circuit.h(q)
    # XOR oracle lowered from the MCT network
    for mct in oracle.gates:
        negatives = [
            line
            for line, positive in zip(mct.controls, mct.polarity)
            if not positive
        ]
        for line in negatives:
            circuit.x(line)
        circuit.mcx(list(mct.controls), mct.target)
        for line in negatives:
            circuit.x(line)
    for q in range(n):
        circuit.h(q)
    for q in range(n):
        circuit.measure(q, q)
    return circuit


def _solve_nullspace(equations: List[int], num_bits: int) -> Optional[int]:
    """The unique nonzero s with z.s = 0 for all z, if rank = n-1."""
    basis: List[int] = []
    for vector in equations:
        value = vector
        for row in basis:
            value = min(value, value ^ row)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    if len(basis) < num_bits - 1:
        return None
    # find s orthogonal to all basis vectors by trying all... no:
    # solve by Gaussian elimination over the dual space
    for candidate in range(1, 1 << num_bits):
        if all(bin(candidate & row).count("1") % 2 == 0 for row in basis):
            return candidate
    return None


@dataclass
class SimonResult:
    recovered: Optional[int]
    expected: int
    success: bool
    quantum_queries: int
    equations: List[int]


def solve_simon(
    instance: SimonInstance,
    seed: Optional[int] = None,
    max_rounds: int = 200,
) -> SimonResult:
    """Sample orthogonality equations until the secret is determined."""
    n = instance.function.num_vars
    circuit = simon_circuit(instance)
    # draw the sample budget in one batch (one simulation, many shots)
    batch = engines.run("statevector", circuit, shots=max_rounds, seed=seed)
    samples: List[int] = []
    for outcome, count in batch.counts.items():
        samples.extend([outcome] * count)
    rng = random.Random(seed)
    rng.shuffle(samples)

    equations: List[int] = []
    queries = 0
    for outcome in samples:
        queries += 1
        if outcome:
            equations.append(outcome)
        solution = _solve_nullspace(equations, n)
        if solution is not None:
            return SimonResult(
                recovered=solution,
                expected=instance.secret,
                success=solution == instance.secret,
                quantum_queries=queries,
                equations=equations,
            )
    return SimonResult(None, instance.secret, False, queries, equations)
