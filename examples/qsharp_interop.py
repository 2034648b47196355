"""The Q# interop flow (Sec. VIII, Figs. 9 and 10).

RevKit acts as a pre-processor: it synthesizes the permutation oracle
for pi = [0,2,3,5,7,1,4,6] through tbs -> revsimp -> Clifford+T
mapping, and emits it as a native Q# operation together with the
hidden-shift driver program.  The generated code is printed, validated
and re-parsed; the same algorithm is then simulated natively to show
the emitted oracle is semantically correct.

Run:  python examples/qsharp_interop.py
"""

from repro.algorithms.hidden_shift import solve_hidden_shift
from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.core.unitary import circuit_unitary
from repro.emit.qsharp import parse_operation_body
from repro.frameworks.qsharp import (
    hidden_shift_program,
    permutation_oracle_operation,
    validate_program,
)

import numpy as np

PI = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])


def main():
    # stage 1: RevKit pre-processing -> Q# source for the oracle
    operation = permutation_oracle_operation(PI)
    print("generated Q# operation (Fig. 10 analogue):")
    print("-" * 60)
    print(operation.code)
    print("-" * 60)

    # stage 1b: the same artifact through the one front door — the
    # qsharp target resolves to the identical pass sequence, so the
    # emitted operation body is gate-for-gate the same
    import repro

    facade = repro.compile(PI, target="qsharp")
    assert facade.circuit.gates == operation.circuit.gates
    print(
        "repro.compile(PI, target='qsharp') emits the same oracle: "
        f"{facade.summary()}"
    )

    # stage 2: full two-namespace program (Fig. 9 + Fig. 10)
    program = hidden_shift_program(PI, 3)
    print(
        f"full program: {len(program.splitlines())} lines, "
        f"well-formed = {validate_program(program)}"
    )

    # stage 3: verify the emitted text *is* the right oracle by parsing
    # it back and inspecting its unitary
    parsed = parse_operation_body(operation.code, operation.circuit.num_qubits)
    unitary = circuit_unitary(parsed)
    correct = all(
        int(np.argmax(np.abs(unitary[:, x]))) == PI(x) for x in range(8)
    )
    print(f"re-parsed oracle realizes pi: {correct}")

    # stage 4: the Q# runtime is unavailable here, so run the same
    # algorithm on the native simulator backend instead
    instance = HiddenShiftInstance(
        MaioranaMcFarland(PI, TruthTable(3)), 5
    )
    result = solve_hidden_shift(instance, method="mm")
    print(
        f"native simulation of the HiddenShift driver: "
        f"result = {result.measured_shift} (expected 5)"
    )
    assert correct and result.measured_shift == 5


if __name__ == "__main__":
    main()
