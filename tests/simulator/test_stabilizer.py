"""Unit tests for the CHP stabilizer simulator."""

import random

import numpy as np
import pytest

from _tableau_reference import expectation_z, stabilizer_strings
from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.simulator.stabilizer import StabilizerError, StabilizerState


def random_clifford_circuit(num_qubits, num_gates, seed, measure=True):
    rng = random.Random(seed)
    circ = QuantumCircuit(num_qubits, num_qubits)
    one_qubit = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(num_qubits), 2)
            choice = rng.random()
            if choice < 0.6:
                circ.cx(a, b)
            elif choice < 0.8:
                circ.cz(a, b)
            else:
                circ.swap(a, b)
        else:
            getattr(circ, rng.choice(one_qubit))(rng.randrange(num_qubits))
    if measure:
        for q in range(num_qubits):
            circ.measure(q, q)
    return circ


class TestTableauBasics:
    def test_initial_stabilizers(self):
        state = StabilizerState(2)
        assert stabilizer_strings(state) == ["+ZI", "+IZ"]

    def test_h_creates_x_stabilizer(self):
        state = StabilizerState(1)
        state.apply_h(0)
        assert stabilizer_strings(state) == ["+X"]

    def test_bell_stabilizers(self):
        state = StabilizerState(2)
        state.apply_h(0)
        state.apply_cx(0, 1)
        strings = set(stabilizer_strings(state))
        assert strings == {"+XX", "+ZZ"}

    def test_x_flips_measurement(self):
        state = StabilizerState(1)
        state.apply_x(0)
        rng = np.random.default_rng(0)
        assert state.measure(0, rng) == 1

    def test_deterministic_measurement(self):
        state = StabilizerState(2)
        state.apply_x(1)
        rng = np.random.default_rng(0)
        assert state.measure(0, rng) == 0
        assert state.measure(1, rng) == 1

    def test_random_measurement_collapses(self):
        rng = np.random.default_rng(5)
        state = StabilizerState(1)
        state.apply_h(0)
        first = state.measure(0, rng)
        # repeated measurement is now deterministic
        assert state.measure(0, rng) == first

    def test_entangled_measurement_correlation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = StabilizerState(2)
            state.apply_h(0)
            state.apply_cx(0, 1)
            assert state.measure(0, rng) == state.measure(1, rng)

    def test_expectation_z(self):
        state = StabilizerState(1)
        assert expectation_z(state, 0) == 0
        state.apply_x(0)
        assert expectation_z(state, 0) == 1
        state.apply_h(0)
        assert expectation_z(state, 0) is None

    def test_non_clifford_rejected(self):
        state = StabilizerState(1)
        from repro.core.gates import Gate

        with pytest.raises(StabilizerError):
            state.apply_gate(Gate("t", (0,)))


class TestAgainstStatevector:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_match_statevector(self, seed):
        """Stabilizer and statevector simulators must agree in
        distribution on random Clifford circuits."""
        circ = random_clifford_circuit(3, 25, seed)
        shots = 400
        stab = engines.run("stabilizer", circ, shots=shots, seed=seed).counts
        sv = engines.run("statevector", circ, shots=shots, seed=seed).counts
        # supports must agree and frequencies be close
        support_stab = {k for k, v in stab.items() if v > 0}
        support_sv = {k for k, v in sv.items() if v > 0}
        assert support_stab == support_sv
        for key in support_stab:
            p_stab = stab[key] / shots
            p_sv = sv[key] / shots
            assert abs(p_stab - p_sv) < 0.15

    def test_deterministic_circuit_agrees_exactly(self):
        circ = QuantumCircuit(3, 3)
        circ.x(0).cx(0, 1).cx(1, 2).x(1)
        for q in range(3):
            circ.measure(q, q)
        counts = engines.run("stabilizer", circ, shots=10, seed=0).counts
        assert counts == {0b101: 10}

    def test_scalability_smoke(self):
        """Tableau handles widths far beyond statevector reach."""
        circ = QuantumCircuit(64, 64)
        circ.h(0)
        for q in range(63):
            circ.cx(q, q + 1)
        for q in range(64):
            circ.measure(q, q)
        counts = engines.run("stabilizer", circ, shots=5, seed=1).counts
        for outcome in counts:
            assert outcome in (0, (1 << 64) - 1)
