"""Unit tests for the compiler-chain backend."""

import pytest

from repro.frameworks.projectq import (
    All,
    CNOT,
    CompilerBackend,
    Compute,
    H,
    MainEngine,
    Measure,
    PermutationOracle,
    PhaseOracle,
    Toffoli,
    Uncompute,
    X,
)
from repro.mapping.routing import CouplingMap


class TestCompilerBackend:
    def test_trivial_program(self):
        eng = MainEngine(backend=CompilerBackend())
        q = eng.allocate_qubit()
        X | q
        Measure | q
        eng.flush()
        assert int(q) == 1

    def test_toffoli_lowered_to_clifford_t(self):
        backend = CompilerBackend()
        eng = MainEngine(backend=backend)
        a, b, c = eng.allocate_qureg(3)
        X | a
        X | b
        Toffoli | (a, b, c)
        Measure | (a, b, c)
        eng.flush()
        assert int(c) == 1
        assert backend.compiled_circuit.is_clifford_t()

    def test_mcz_oracle_lowered(self):
        backend = CompilerBackend()
        eng = MainEngine(backend=backend)
        qubits = eng.allocate_qureg(4)
        All(H) | qubits
        PhaseOracle(lambda a, b, c, d: a and b and c and d) | qubits
        All(H) | qubits
        Measure | qubits
        eng.flush()
        assert backend.compiled_circuit.is_clifford_t()

    def test_routing_to_line_topology(self):
        backend = CompilerBackend(coupling=CouplingMap.line(8))
        eng = MainEngine(backend=backend)
        a, b, c = eng.allocate_qureg(3)
        X | a
        CNOT | (a, c)  # distant on the line
        Measure | (a, b, c)
        eng.flush()
        assert int(c) == 1
        assert int(a) == 1
        cmap = CouplingMap.line(8)
        for gate in backend.compiled_circuit.gates:
            if gate.is_unitary and gate.num_qubits == 2:
                assert cmap.connected(*gate.qubits)

    def test_fig4_on_chip_topology(self):
        """The quickstart program, fully compiled for ibmqx2."""
        def f(a, b, c, d):
            return (a and b) ^ (c and d)

        backend = CompilerBackend(coupling=CouplingMap.ibm_qx2())
        eng = MainEngine(backend=backend)
        x1, x2, x3, x4 = qubits = eng.allocate_qureg(4)
        with Compute(eng):
            All(H) | qubits
            X | x1
        PhaseOracle(f) | qubits
        Uncompute(eng)
        PhaseOracle(f) | qubits
        All(H) | qubits
        Measure | qubits
        eng.flush()
        shift = 8 * int(x4) + 4 * int(x3) + 2 * int(x2) + int(x1)
        assert shift == 1
        assert backend.report.routed

    def test_permutation_oracle_through_chain(self, paper_pi):
        backend = CompilerBackend(coupling=CouplingMap.line(6))
        eng = MainEngine(backend=backend)
        qubits = eng.allocate_qureg(3)
        X | qubits[0]  # input |001> = 1
        PermutationOracle(paper_pi) | qubits
        Measure | qubits
        eng.flush()
        value = sum(int(q) << i for i, q in enumerate(qubits))
        assert value == paper_pi(1)

    def test_report_statistics(self):
        backend = CompilerBackend()
        eng = MainEngine(backend=backend)
        q = eng.allocate_qubit()
        H | q
        H | q  # cancels
        X | q
        Measure | q
        eng.flush()
        report = backend.report
        assert report.source_stats.num_gates == 3
        assert report.compiled_stats.num_gates == 1
        assert "compiled_gates" in report.as_dict()

    def test_optimization_can_be_disabled(self):
        from repro.compiler import targets

        backend = CompilerBackend(
            compile_target=targets.PROJECTQ.with_(optimization_level=1)
        )
        eng = MainEngine(backend=backend)
        q = eng.allocate_qubit()
        from repro.frameworks.projectq import T

        T | q
        T | q  # would merge to S under tpar
        eng.flush()
        names = [g.name for g in backend.compiled_circuit]
        assert names == ["t", "t"]

    def test_t_count_never_increases(self):
        backend = CompilerBackend()
        eng = MainEngine(backend=backend)
        qubits = eng.allocate_qureg(3)
        Toffoli | (qubits[0], qubits[1], qubits[2])
        Toffoli | (qubits[0], qubits[1], qubits[2])
        eng.flush()
        # two identical Toffolis cancel entirely in the chain
        assert backend.compiled_circuit.t_count() == 0
