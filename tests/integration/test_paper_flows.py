"""Integration tests reproducing the paper's end-to-end flows.

Each test mirrors one artifact of the paper: the Fig. 4 program, the
Fig. 5 circuit structure, the Fig. 6 noisy-chip run, the Fig. 7
Maiorana–McFarland program, the Eq. (5) RevKit pipeline, and the
Fig. 9/10 Q# interop.
"""

import pytest

from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.frameworks.projectq import (
    All,
    Compute,
    Dagger,
    H,
    IBMBackend,
    MainEngine,
    Measure,
    PermutationOracle,
    PhaseOracle,
    Uncompute,
    X,
)
from repro.frameworks.qsharp import (
    hidden_shift_program,
    parse_operation_body,
    permutation_oracle_operation,
    validate_program,
)
from repro.revkit import RevKitShell, dbs
from repro.simulator.statevector import Statevector


def paper_f(a, b, c, d):
    return (a and b) ^ (c and d)


def run_fig4_program(backend=None, seed=0):
    """The paper's Fig. 4 listing (PhaseOracle outside Compute, as in
    the actual ProjectQ revkit sample and the Fig. 5 circuit)."""
    eng = MainEngine(backend=backend, seed=seed)
    x1, x2, x3, x4 = qubits = eng.allocate_qureg(4)

    with Compute(eng):
        All(H) | qubits
        X | x1
    PhaseOracle(paper_f) | qubits
    Uncompute(eng)

    PhaseOracle(paper_f) | qubits
    All(H) | qubits
    Measure | qubits

    eng.flush()
    shift = 8 * int(x4) + 4 * int(x3) + 2 * int(x2) + int(x1)
    return shift, eng


class TestFig4Flow:
    def test_shift_is_one(self):
        shift, _eng = run_fig4_program()
        assert shift == 1

    def test_program_deterministic_across_seeds(self):
        for seed in range(5):
            shift, _eng = run_fig4_program(seed=seed)
            assert shift == 1

    def test_fig5_circuit_structure(self):
        """Fig. 5: three H layers, two X (shift), two phase oracles of
        two CZ cubes each, then measurement."""
        _shift, eng = run_fig4_program()
        ops = eng.circuit.count_ops()
        assert ops["h"] == 12     # 4 qubits x 3 layers
        assert ops["x"] == 2      # X^s twice (compute + uncompute)
        assert ops["cz"] == 4     # two cubes per oracle, two oracles
        assert ops["measure"] == 4

    def test_f_equals_its_dual(self):
        """Sec. VII: 'It can be shown that f = f~'."""
        from _spectral_reference import dual_bent

        table = TruthTable.from_function(4, paper_f)
        assert dual_bent(table) == table

    def test_all_shifts_recovered(self):
        """Beyond the paper's s = 1: the same program structure finds
        every shift when the X layer encodes it."""
        table = TruthTable.from_function(4, paper_f)
        mm_like = HiddenShiftInstance(
            MaioranaMcFarland(BitPermutation.identity(2), TruthTable(2)),
            0,
        )
        from repro.algorithms.hidden_shift import solve_hidden_shift

        for shift in range(16):
            instance = HiddenShiftInstance(mm_like.function, shift)
            result = solve_hidden_shift(instance)
            assert result.measured_shift == shift


class TestFig6NoisyRun:
    def test_histogram_shape(self):
        """3 x 1024 shots on the noisy backend: the correct shift is
        the clear mode with probability well below 1 (paper: ~0.63)."""
        backend = IBMBackend(shots=1024, seed=2018)
        shift, eng = run_fig4_program(backend=backend)
        assert shift == 1  # modal outcome is the correct shift
        histogram = backend.histogram()
        p_correct = histogram.get(1, 0.0)
        assert 0.35 < p_correct < 0.95
        assert p_correct < 0.999  # noise visibly present
        # every other outcome is individually less likely
        for outcome, p in histogram.items():
            if outcome != 1:
                assert p < p_correct


class TestFig7Flow:
    def test_mm_program(self, paper_pi):
        """The Fig. 7 listing with pi = [0,2,3,5,7,1,4,6], s = 5."""

        def f6(a, b, c, d, e, f):
            return (a and b) ^ (c and d) ^ (e and f)

        eng = MainEngine(seed=7)
        qubits = eng.allocate_qureg(6)
        x = qubits[::2]
        y = qubits[1::2]

        with Compute(eng):
            All(H) | qubits
            All(X) | [x[0], x[1]]
            PermutationOracle(paper_pi) | y
        PhaseOracle(f6) | qubits
        Uncompute(eng)

        with Compute(eng):
            with Dagger(eng):
                PermutationOracle(paper_pi, synth=dbs) | x
        PhaseOracle(f6) | qubits
        Uncompute(eng)

        All(H) | qubits
        Measure | qubits
        eng.flush()

        shift = sum(int(q) << i for i, q in enumerate(qubits))
        assert shift == 5

    def test_fig8_subcircuit_count(self, paper_pi):
        """Fig. 8: four permutation subcircuits (pi or its inverse)."""
        from repro.frameworks.projectq.backends import CircuitCollector

        eng = MainEngine(backend=CircuitCollector())
        qubits = eng.allocate_qureg(6)
        y = qubits[1::2]
        with Compute(eng):
            PermutationOracle(paper_pi) | y
        Uncompute(eng)
        with Compute(eng):
            with Dagger(eng):
                PermutationOracle(paper_pi, synth=dbs) | qubits[::2]
        Uncompute(eng)
        eng.flush()
        # the four dashed boxes exist as gate blocks; just check the
        # full sequence is unitary-trivial (each pair cancels)
        circuit = eng.backend.circuit
        state = Statevector(circuit.num_qubits).evolve(circuit)
        assert state.probability_of(0) == pytest.approx(1.0)


class TestEq5Pipeline:
    def test_full_pipeline_statistics(self):
        shell = RevKitShell()
        outputs = shell.run(
            "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c"
        )
        # synthesized circuit realizes hwb4
        assert shell.quantum is not None
        stats = outputs[-1]
        assert "T:" in stats
        # pipeline ends in a Clifford+T circuit
        assert shell.quantum.is_clifford_t()

    def test_pipeline_preserves_function(self):
        """After tbs + revsimp the reversible circuit still computes
        hwb4 (simulate command cross-checks)."""
        shell = RevKitShell()
        shell.run("revgen --hwb 4; tbs; revsimp")
        assert "matches specification: True" in shell.execute("simulate")


class TestQSharpFlow:
    def test_fig10_oracle_generation(self, paper_pi):
        """RevKit as Q# pre-processor: the emitted operation uses only
        Q# primitives and computes pi on the data qubits."""
        operation = permutation_oracle_operation(paper_pi)
        assert validate_program(operation.code)
        for line in operation.code.splitlines():
            stripped = line.strip()
            if stripped.endswith(");") and "(" in stripped:
                assert any(
                    stripped.startswith(name)
                    for name in (
                        "H(", "X(", "Y(", "Z(", "S(", "T(", "CNOT(",
                        "CZ(", "CCNOT(", "SWAP(", "(Adjoint",
                    )
                )

    def test_fig9_program_and_native_simulation(self, paper_pi):
        program = hidden_shift_program(paper_pi, 3)
        assert validate_program(program)
        # the permutation oracle inside the program is re-parsed and
        # must act as pi on the data qubits
        operation = permutation_oracle_operation(paper_pi)
        parsed = parse_operation_body(
            operation.code, operation.circuit.num_qubits
        )
        from repro.core.unitary import circuit_unitary
        import numpy as np

        unitary = circuit_unitary(parsed)
        for value in range(8):
            column = unitary[:, value]
            assert int(np.argmax(np.abs(column))) == paper_pi(value)


class TestCrossMethodConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_tt_and_mm_methods_agree(self, seed):
        from repro.algorithms.hidden_shift import solve_hidden_shift

        instance = HiddenShiftInstance.random(2, seed=seed + 50)
        a = solve_hidden_shift(instance, method="truth_table")
        b = solve_hidden_shift(instance, method="mm")
        assert a.measured_shift == b.measured_shift == instance.shift
