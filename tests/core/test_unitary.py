"""Unit tests for dense unitary construction and equivalence checks."""

import math

import numpy as np
import pytest

from _dense_reference import (
    allclose_up_to_global_phase,
    circuits_equivalent,
    unitary_as_permutation,
)

from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary


class TestCircuitUnitary:
    def test_identity(self):
        assert np.allclose(circuit_unitary(QuantumCircuit(2)), np.eye(4))

    def test_x_on_qubit0_is_lsb(self):
        unitary = circuit_unitary(QuantumCircuit(2).x(0))
        # |00> -> |01>: column 0 maps to row 1
        assert unitary[1, 0] == pytest.approx(1)
        assert unitary[3, 2] == pytest.approx(1)

    def test_x_on_qubit1_is_msb(self):
        unitary = circuit_unitary(QuantumCircuit(2).x(1))
        assert unitary[2, 0] == pytest.approx(1)

    def test_bell_circuit(self):
        unitary = circuit_unitary(QuantumCircuit(2).h(0).cx(0, 1))
        state = unitary[:, 0]
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_kron_structure_of_parallel_gates(self):
        circ = QuantumCircuit(2).h(0).x(1)
        h = circuit_unitary(QuantumCircuit(1).h(0))
        x = circuit_unitary(QuantumCircuit(1).x(0))
        # qubit 0 = LSB -> rightmost factor in kron
        assert np.allclose(circuit_unitary(circ), np.kron(x, h))

    def test_sequential_is_matrix_product(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).cx(0, 1)
        ab = a.copy()
        ab.compose(b)
        assert np.allclose(
            circuit_unitary(ab),
            circuit_unitary(b) @ circuit_unitary(a),
        )

    def test_ccx_with_scattered_qubits(self):
        circ = QuantumCircuit(4).ccx(3, 1, 0)
        unitary = circuit_unitary(circ)
        for x in range(16):
            expect = x ^ 1 if (x >> 3) & 1 and (x >> 1) & 1 else x
            assert unitary[expect, x] == pytest.approx(1)

    def test_measurement_rejected(self):
        circ = QuantumCircuit(1, 1).measure(0, 0)
        with pytest.raises(ValueError):
            circuit_unitary(circ)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            circuit_unitary(QuantumCircuit(13))


class TestEquivalence:
    def test_global_phase_tolerated(self):
        a = QuantumCircuit(1).x(0).z(0)
        b = QuantumCircuit(1).y(0)  # Y = iXZ
        assert circuits_equivalent(a, b, up_to_phase=True)
        assert not circuits_equivalent(a, b, up_to_phase=False)

    def test_hzh_equals_x(self):
        a = QuantumCircuit(1).h(0).z(0).h(0)
        b = QuantumCircuit(1).x(0)
        assert circuits_equivalent(a, b)

    def test_different_unitaries_detected(self):
        assert not circuits_equivalent(
            QuantumCircuit(1).x(0), QuantumCircuit(1).z(0)
        )

    def test_width_mismatch(self):
        assert not circuits_equivalent(
            QuantumCircuit(1).x(0), QuantumCircuit(2).x(0)
        )

    def test_phase_helper_rejects_scaled(self):
        a = np.eye(2)
        assert not allclose_up_to_global_phase(a, 2 * a)


class TestPermutationExtraction:
    def test_cnot_permutation(self):
        perm = unitary_as_permutation(
            circuit_unitary(QuantumCircuit(2).cx(0, 1))
        )
        assert perm == [0, 3, 2, 1]

    def test_non_permutation_returns_none(self):
        assert unitary_as_permutation(
            circuit_unitary(QuantumCircuit(1).h(0))
        ) is None

    def test_phase_marked_permutation_accepted(self):
        # Z is diagonal +-1: still a permutation pattern
        perm = unitary_as_permutation(
            circuit_unitary(QuantumCircuit(1).z(0))
        )
        assert perm == [0, 1]
