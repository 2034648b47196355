"""Unit tests for the statevector simulator."""


import numpy as np
import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary
from repro.simulator.statevector import SimulationError, Statevector

from _helpers import assert_states_equal, random_clifford_t_circuit


class TestStatevectorBasics:
    def test_initial_state(self):
        state = Statevector(2)
        assert state.probability_of(0) == pytest.approx(1.0)
        assert np.linalg.norm(state.data) == pytest.approx(1.0)

    def test_from_basis_state(self):
        state = Statevector.from_basis_state(3, 5)
        assert state.probability_of(5) == pytest.approx(1.0)


class TestEvolution:
    def test_bell_state(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        state = Statevector(2).evolve(circ)
        assert state.probability_of(0) == pytest.approx(0.5)
        assert state.probability_of(3) == pytest.approx(0.5)

    def test_ghz_state(self):
        circ = QuantumCircuit(5).h(0)
        for q in range(4):
            circ.cx(q, q + 1)
        state = Statevector(5).evolve(circ)
        assert state.probability_of(0) == pytest.approx(0.5)
        assert state.probability_of(31) == pytest.approx(0.5)

    def test_matches_dense_unitary(self):
        circ = random_clifford_t_circuit(4, 60, seed=9)
        state = Statevector(4).evolve(circ)
        expected = circuit_unitary(circ)[:, 0]
        assert np.allclose(state.data, expected, atol=1e-9)

    def test_mcx_fast_path_matches_matrix_path(self):
        circ = QuantumCircuit(5).h(0).h(1).h(2).h(3)
        circ.mcx([0, 1, 2, 3], 4)
        fast = Statevector(5).evolve(circ)
        slow = Statevector(5)
        for gate in circ.gates:
            slow.apply_matrix(gate.matrix(), gate.qubits)
        assert np.allclose(fast.data, slow.data)

    def test_mcz_fast_path_matches_matrix_path(self):
        circ = QuantumCircuit(4).h(0).h(1).h(2)
        circ.mcz([0, 1], 3)
        circ.h(3)
        fast = Statevector(4).evolve(circ)
        slow = Statevector(4)
        for gate in circ.gates:
            slow.apply_matrix(gate.matrix(), gate.qubits)
        assert np.allclose(fast.data, slow.data)

    def test_evolve_rejects_measurement(self):
        circ = QuantumCircuit(1, 1).measure(0, 0)
        with pytest.raises(SimulationError, match=r"engines\.run\('statevector'"):
            Statevector(1).evolve(circ)

    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            Statevector(1).evolve(QuantumCircuit(2).h(0))

    def test_norm_preserved(self):
        circ = random_clifford_t_circuit(3, 80, seed=4)
        state = Statevector(3).evolve(circ)
        assert np.linalg.norm(state.data) == pytest.approx(1.0)


class TestMeasurement:
    def test_deterministic_measurement(self):
        rng = np.random.default_rng(0)
        state = Statevector.from_basis_state(2, 2)
        assert state.measure_qubit(0, rng) == 0
        assert state.measure_qubit(1, rng) == 1

    def test_collapse(self):
        rng = np.random.default_rng(1)
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        state = Statevector(2).evolve(circ)
        first = state.measure_qubit(0, rng)
        # entangled: second measurement must agree
        second = state.measure_qubit(1, rng)
        assert first == second

    def test_measurement_statistics(self):
        rng = np.random.default_rng(7)
        ones = 0
        for _ in range(300):
            state = Statevector(1).evolve(QuantumCircuit(1).h(0))
            ones += state.measure_qubit(0, rng)
        assert 100 < ones < 200

    def test_reset(self):
        rng = np.random.default_rng(3)
        state = Statevector.from_basis_state(1, 1)
        state.reset_qubit(0, rng)
        assert state.probability_of(0) == pytest.approx(1.0)


class TestSimulatorRuns:
    def test_run_counts_sum_to_shots(self):
        circ = QuantumCircuit(2, 2).h(0).cx(0, 1)
        circ.measure(0, 0).measure(1, 1)
        result = engines.run("statevector", circ, shots=256, seed=11)
        assert sum(result.counts.values()) == 256
        assert set(result.counts) <= {0, 3}

    def test_seeded_reproducibility(self):
        circ = QuantumCircuit(1, 1).h(0).measure(0, 0)
        a = engines.run("statevector", circ, shots=100, seed=42).counts
        b = engines.run("statevector", circ, shots=100, seed=42).counts
        assert a == b

    def test_mid_circuit_measurement(self):
        # measure then use the qubit again: forces per-shot path
        circ = QuantumCircuit(1, 2)
        circ.h(0)
        circ.measure(0, 0)
        circ.x(0)
        circ.measure(0, 1)
        result = engines.run("statevector", circ, shots=64, seed=2)
        for outcome in result.counts:
            first = outcome & 1
            second = (outcome >> 1) & 1
            assert second == first ^ 1

    def test_counts_by_bitstring(self):
        circ = QuantumCircuit(2, 2).x(1).measure(0, 0).measure(1, 1)
        result = engines.run("statevector", circ, shots=10, seed=0)
        assert result.counts_by_bitstring() == {"10": 10}

    def test_counts_by_bitstring_all_zero_without_final_state(self):
        """Width must come from the measured clbits, not key.bit_length().

        Regression: an all-zero histogram with no final state used to
        format as a single '0' regardless of the register width.
        """
        from repro.simulator.statevector import SimulationResult

        result = SimulationResult({0: 7}, None, 7, num_clbits=3)
        assert result.counts_by_bitstring() == {"000": 7}

    def test_counts_by_bitstring_width_from_measured_clbits(self):
        """Simulator runs record the measured register width."""
        circ = QuantumCircuit(3, 3)
        for q in range(3):
            circ.measure(q, q)
        result = engines.run("statevector", circ, shots=5, seed=1)
        assert result.num_clbits == 3
        assert result.counts_by_bitstring() == {"000": 5}

    def test_counts_by_bitstring_partial_measurement_keeps_register_width(self):
        """A declared 3-clbit register formats 3 chars wide even when
        only one clbit is measured."""
        circ = QuantumCircuit(3, 3).x(0).measure(0, 0)
        result = engines.run("statevector", circ, shots=5, seed=2)
        assert result.counts_by_bitstring() == {"001": 5}

    def test_counts_by_bitstring_monte_carlo_width(self):
        """monte_carlo results (no final state) format full-width too."""
        circ = QuantumCircuit(3, 3)
        for q in range(3):
            circ.measure(q, q)
        result = engines.run("monte_carlo", circ, shots=4, seed=0)
        assert result.final_state is None
        assert result.counts_by_bitstring() == {"000": 4}

    def test_most_frequent_requires_counts(self):
        circ = QuantumCircuit(1).h(0)
        result = engines.run("statevector", circ)
        with pytest.raises(SimulationError):
            result.most_frequent()


class TestStateComparison:
    def test_fidelity_and_equiv(self):
        a = Statevector(1).evolve(QuantumCircuit(1).h(0))
        b = Statevector(1).evolve(QuantumCircuit(1).h(0).z(0).z(0))
        assert_states_equal(a, b)

    def test_str_rendering(self):
        state = Statevector(2).evolve(QuantumCircuit(2).x(0))
        assert "|01>" in str(state)
