"""Unit tests for the ProjectQ-style engine and ops."""

import pytest

from repro.frameworks.projectq import (
    CNOT,
    CZ,
    All,
    Compute,
    Dagger,
    EngineError,
    H,
    MainEngine,
    Measure,
    Rz,
    S,
    Swap,
    T,
    Toffoli,
    Uncompute,
    X,
    Z,
)
from repro.frameworks.projectq.backends import Simulator


class TestEngineBasics:
    def test_allocation(self):
        eng = MainEngine()
        qubits = eng.allocate_qureg(3)
        assert [q.index for q in qubits] == [0, 1, 2]
        assert eng.circuit.num_qubits == 3

    def test_gate_recording(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        H | q
        T | q
        assert [g.name for g in eng.circuit] == ["h", "t"]

    def test_two_qubit_syntax(self):
        eng = MainEngine()
        a, b = eng.allocate_qureg(2)
        CNOT | (a, b)
        gate = eng.circuit.gates[0]
        assert gate.name == "cx"
        assert gate.controls == (a.index,)
        assert gate.targets == (b.index,)

    def test_toffoli_and_swap(self):
        eng = MainEngine()
        a, b, c = eng.allocate_qureg(3)
        Toffoli | (a, b, c)
        Swap | (a, c)
        names = [g.name for g in eng.circuit]
        assert names == ["ccx", "swap"]

    def test_all_broadcast(self):
        eng = MainEngine()
        qubits = eng.allocate_qureg(4)
        All(H) | qubits
        assert eng.circuit.count_ops() == {"h": 4}

    def test_wrong_qubit_count_rejected(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        with pytest.raises(EngineError):
            CNOT | (q,)

    def test_cross_engine_rejected(self):
        a = MainEngine().allocate_qubit()
        b = MainEngine().allocate_qubit()
        with pytest.raises(EngineError):
            CNOT | (a, b)

    def test_rz_parameter(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        Rz(0.5) | q
        assert eng.circuit.gates[0].params == (0.5,)


class TestMeasurementFlow:
    def test_deterministic_readout(self):
        eng = MainEngine(seed=0)
        q = eng.allocate_qubit()
        X | q
        Measure | q
        eng.flush()
        assert int(q) == 1
        assert bool(q)

    def test_unmeasured_read_raises(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        with pytest.raises(EngineError):
            int(q)

    def test_register_measurement(self):
        eng = MainEngine(seed=1)
        qubits = eng.allocate_qureg(3)
        X | qubits[1]
        Measure | qubits
        eng.flush()
        assert [int(q) for q in qubits] == [0, 1, 0]

    def test_entangled_measurement_consistent(self):
        eng = MainEngine(seed=5)
        a, b = eng.allocate_qureg(2)
        H | a
        CNOT | (a, b)
        Measure | (a, b)
        eng.flush()
        assert int(a) == int(b)

    def test_context_manager_flushes(self):
        with MainEngine(seed=2) as eng:
            q = eng.allocate_qubit()
            X | q
            Measure | q
        assert int(q) == 1


class TestMetaContexts:
    def test_compute_uncompute_restores_identity(self):
        eng = MainEngine(seed=3)
        qubits = eng.allocate_qureg(2)
        with Compute(eng):
            All(H) | qubits
            CNOT | (qubits[0], qubits[1])
        Uncompute(eng)
        Measure | qubits
        eng.flush()
        assert [int(q) for q in qubits] == [0, 0]

    def test_uncompute_without_compute_raises(self):
        eng = MainEngine()
        eng.allocate_qubit()
        with pytest.raises(EngineError):
            Uncompute(eng)

    def test_uncompute_inverts_order_and_gates(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        with Compute(eng):
            T | q
            H | q
        Uncompute(eng)
        names = [g.name for g in eng.circuit]
        assert names == ["t", "h", "h", "tdg"]

    def test_dagger(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        with Dagger(eng):
            T | q
            S | q
        names = [g.name for g in eng.circuit]
        assert names == ["sdg", "tdg"]

    def test_nested_dagger_cancels(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        with Dagger(eng):
            with Dagger(eng):
                T | q
        assert [g.name for g in eng.circuit] == ["t"]

    def test_flush_inside_open_frame_rejected(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        compute = Compute(eng)
        compute.__enter__()
        X | q
        with pytest.raises(EngineError):
            eng.flush()
        compute.__exit__(None, None, None)


class TestSimulatorBackend:
    def test_probabilities_exposed(self):
        eng = MainEngine()
        q = eng.allocate_qubit()
        H | q
        eng.flush()
        probs = eng.backend.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_seeded_backend_reproducible(self):
        def run():
            eng = MainEngine(backend=Simulator(seed=9))
            q = eng.allocate_qubit()
            H | q
            Measure | q
            eng.flush()
            return int(q)

        assert run() == run()
