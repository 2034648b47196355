"""Unit tests for the engine backends."""

import pytest

from repro.frameworks.projectq import (
    All,
    H,
    MainEngine,
    Measure,
    X,
)
from repro.frameworks.projectq.backends import (
    CircuitCollector,
    IBMBackend,
    Simulator,
)


class TestSimulatorBackend:
    def test_final_state_available(self):
        eng = MainEngine(backend=Simulator())
        q = eng.allocate_qubit()
        X | q
        eng.flush()
        assert eng.backend.final_state.probability_of(1) == pytest.approx(1)


class TestIBMBackend:
    def test_histogram_normalized(self):
        backend = IBMBackend(shots=256, seed=4)
        eng = MainEngine(backend=backend)
        qubits = eng.allocate_qureg(2)
        All(H) | qubits
        Measure | qubits
        eng.flush()
        hist = backend.histogram()
        assert sum(hist.values()) == pytest.approx(1.0)

    def test_modal_outcome_loaded_into_qubits(self):
        backend = IBMBackend(shots=512, seed=7)
        eng = MainEngine(backend=backend)
        q = eng.allocate_qubit()
        X | q
        Measure | q
        eng.flush()
        assert int(q) == 1  # despite noise, mode is the right answer


class TestCircuitCollector:
    def test_collects_copy(self):
        backend = CircuitCollector()
        eng = MainEngine(backend=backend)
        q = eng.allocate_qubit()
        H | q
        eng.flush()
        assert [g.name for g in backend.circuit] == ["h"]
        # later edits to the engine circuit don't leak in
        X | q
        assert [g.name for g in backend.circuit] == ["h"]
