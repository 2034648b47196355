"""FIG9/10 — the Q# interop flow (Sec. VIII).

Paper artifact: RevKit runs as a pre-processor emitting the
permutation oracle as native Q# (Fig. 10), which the Q# hidden-shift
driver (Fig. 9) consumes.

Substitution: the Q# compiler is unavailable, so the generated program
is validated structurally, the oracle operation is re-parsed back into
a circuit, and the same algorithm is simulated natively — checking
that the emitted code is both well-formed and semantically the right
oracle.

The RevKit pre-processing (synthesize, revsimp, rptm, cancel) is the
``qsharp`` compilation target, run on the pass manager; the bench
asserts the emitted oracle circuit equals the target's output
gate-for-gate.
"""

import numpy as np
from conftest import report

from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.algorithms.hidden_shift import solve_hidden_shift
from repro.core.unitary import circuit_unitary
from repro.emit.qsharp import parse_operation_body
from repro.frameworks.qsharp import (
    hidden_shift_program,
    permutation_oracle_operation,
    validate_program,
)
import repro
from repro.compiler import targets
from repro.pipeline import Pipeline
from repro.synthesis.decomposition import decomposition_based_synthesis

PAPER_PI = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])


def generate_program():
    return hidden_shift_program(PAPER_PI, 3)


def test_fig10_qsharp_generation(benchmark):
    program = benchmark(generate_program)

    operation = permutation_oracle_operation(PAPER_PI)
    parsed = parse_operation_body(operation.code, operation.circuit.num_qubits)
    unitary = circuit_unitary(parsed)
    oracle_correct = all(
        int(np.argmax(np.abs(unitary[:, x]))) == PAPER_PI(x)
        for x in range(8)
    )
    gate_lines = [
        line for line in operation.code.splitlines()
        if line.strip().endswith(");") and "qubits[" in line
    ]
    instance = HiddenShiftInstance(
        MaioranaMcFarland(PAPER_PI, TruthTable(3)), 5
    )
    native = solve_hidden_shift(instance, method="mm")

    # the emitted oracle is exactly the qsharp target's compiled circuit
    preset = repro.compile(PAPER_PI, target="qsharp", cache=None)
    assert operation.circuit.gates == preset.circuit.gates

    report(
        "FIG9/10: Q# interop (RevKit as pre-processor)",
        [
            ("paper: emitted operation", "PermutationOracle (Fig. 10)"),
            ("pipeline preset", str(preset.flow)),
            ("generated program valid", validate_program(program)),
            ("operation gate statements", len(gate_lines)),
            ("paper Fig.10 gate set", "H, T, T', CNOT"),
            (
                "measured gate set",
                sorted(operation.circuit.count_ops().keys()),
            ),
            ("reparsed oracle == pi", oracle_correct),
            ("native simulation shift (paper: 5)", native.measured_shift),
            ("HiddenShift driver present", "operation HiddenShift" in program),
            ("BentFunction present", "function BentFunction" in program),
        ],
    )
    assert validate_program(program)
    assert oracle_correct
    assert native.measured_shift == 5


def test_fig10_synthesis_choices(benchmark):
    def _run():
        """The paper uses tbs for one oracle and dbs for the other; both
        synthesis back-ends must produce valid, equivalent Q# oracles
        (compiled under the pass manager's fail-fast verification)."""
        rows = []
        for name, synth in (
            ("tbs (default)", None),
            ("dbs", decomposition_based_synthesis),
        ):
            target = targets.QSHARP
            if synth is not None:
                target = target.with_(synthesis=synth)
            operation = permutation_oracle_operation(
                PAPER_PI, target=target,
                pipeline=Pipeline(cache=None, verify=True),
            )
            parsed = parse_operation_body(
                operation.code, operation.circuit.num_qubits
            )
            unitary = circuit_unitary(parsed)
            ok = all(
                int(np.argmax(np.abs(unitary[:, x]))) == PAPER_PI(x)
                for x in range(8)
            )
            rows.append(
                (name, f"gates={len(operation.circuit)} "
                 f"T={operation.circuit.t_count()} correct={ok}")
            )
            assert ok
        report("FIG10 extension: synthesis back-ends", rows)
    benchmark.pedantic(_run, rounds=1, iterations=1)
