"""Unit tests for the Clifford+T CCX decomposition."""

from _dense_reference import allclose_up_to_global_phase

from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary
from repro.mapping.clifford_t import ccx_clifford_t


class TestCcx:
    def test_unitary_exact(self):
        reference = circuit_unitary(QuantumCircuit(3).ccx(0, 1, 2))
        decomposed = circuit_unitary(ccx_clifford_t(0, 1, 2, 3))
        assert allclose_up_to_global_phase(decomposed, reference)

    def test_t_count_is_seven(self):
        assert ccx_clifford_t(0, 1, 2, 3).t_count() == 7

    def test_t_depth_bound(self):
        assert ccx_clifford_t(0, 1, 2, 3).t_depth() <= 4

    def test_is_clifford_t(self):
        assert ccx_clifford_t(0, 1, 2, 3).is_clifford_t()

    def test_arbitrary_wire_assignment(self):
        reference = circuit_unitary(QuantumCircuit(4).ccx(3, 0, 2))
        decomposed = circuit_unitary(ccx_clifford_t(3, 0, 2, 4))
        assert allclose_up_to_global_phase(decomposed, reference)

