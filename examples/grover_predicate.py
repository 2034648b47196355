"""Grover search with an automatically compiled predicate (Sec. I).

The paper motivates automatic oracle compilation with Grover's
algorithm: "the overhead due to implementing the defining predicate in
a reversible way can be quite substantial".  This example writes the
predicate as a plain Python function — a tiny SAT-style constraint —
and lets the ESOP flow compile it into the phase oracle.

Run:  python examples/grover_predicate.py
"""

from repro.algorithms.grover import solve_grover
from repro.boolean.expression import predicate_to_truth_table


def constraint(a, b, c, d):
    """(a or b) and (not b or c) and (c != d) and a."""
    return (a or b) and ((not b) or c) and (c != d) and a


def main():
    table = predicate_to_truth_table(constraint)
    solutions = [x for x in range(16) if table(x)]
    print(f"predicate has {len(solutions)} satisfying assignments:")
    for x in solutions:
        print(f"  abcd = {x & 1}{(x >> 1) & 1}{(x >> 2) & 1}{(x >> 3) & 1}")

    result = solve_grover(constraint, seed=7)
    measured = result.measured
    print(
        f"\nGrover ({result.iterations} iterations) measured "
        f"x = {measured:04b} "
        f"(a={measured & 1}, b={(measured >> 1) & 1}, "
        f"c={(measured >> 2) & 1}, d={(measured >> 3) & 1})"
    )
    print(f"is a solution: {result.is_solution}")
    print(f"success probability: {result.success_probability:.3f}")
    print(
        f"oracle + diffusion circuit: {len(result.circuit)} gates on "
        f"{result.circuit.num_qubits} qubits"
    )
    # one shot finds a solution with probability ~0.95; the check is
    # on the exact probability, not on a single sampled outcome
    assert result.success_probability > 0.9


if __name__ == "__main__":
    main()
