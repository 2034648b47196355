"""Array sweeps of the kernel layer: goldens and the dtype contract.

The golden tests assert the kernels' NumPy sweeps are *identical* —
``np.array_equal``, not ``allclose`` — to the historical kernel layer,
using states captured from it
(``tests/simulator/golden/kernel_states.npz``).
"""

import warnings

import numpy as np
import pytest

from _backend_corpus import CASES, corpus_circuit, corpus_state
from _helpers import apply_per_gate
from repro.engines.density_matrix import DensityMatrix
from repro.simulator import kernels
from repro.simulator.statevector import Statevector

GOLDEN = "tests/simulator/golden/kernel_states.npz"


# ----------------------------------------------------------------------
# golden identity: the kernel sweeps ARE the historical kernel layer
# ----------------------------------------------------------------------
class TestGoldenIdentity:
    @pytest.fixture(scope="class")
    def golden(self):
        return np.load(GOLDEN)

    @pytest.mark.parametrize(
        "name,num_qubits,seed,gates,fuse",
        CASES,
        ids=[c[0] for c in CASES],
    )
    def test_statevector_bit_identical(
        self, golden, name, num_qubits, seed, gates, fuse
    ):
        circ = corpus_circuit(num_qubits, seed, gates)
        state = corpus_state(num_qubits, seed + 1)
        if fuse:
            ops = kernels.compile_circuit(circ.gates)
            kernels.apply_ops(state, ops, num_qubits)
        else:
            apply_per_gate(state, circ.gates, num_qubits)
        assert np.array_equal(state, golden[name])

    def test_density_matrix_bit_identical(self, golden):
        rho = DensityMatrix(4)
        for gate in corpus_circuit(4, 77, 40).gates:
            if gate.name != "barrier":
                rho.apply_gate(gate)
        rho.apply_channel("amplitude_damping", 0.2, 1)
        rho.apply_channel("phase_damping", 0.1, 2)
        rho.apply_channel("depolarizing", 0.05, 0)
        assert np.array_equal(rho.data, golden["density_fused"])


# ----------------------------------------------------------------------
# allocation and the dtype contract
# ----------------------------------------------------------------------
class TestAllocationAndDtype:
    def test_fresh_states_are_complex_ground_states(self):
        state = Statevector(3).data
        assert state.shape == (8,)
        assert state.dtype == np.complex128
        assert state[0] == 1.0 and not state[1:].any()
        rho = DensityMatrix(2).data
        assert rho.shape == (16,)
        assert rho.dtype == np.complex128

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, bool]
    )
    def test_ingest_upcasts_numeric(self, dtype):
        out = Statevector(2, data=np.array([1, 0, 0, 0], dtype=dtype)).data
        assert out.dtype == np.complex128
        assert out[0] == 1.0 + 0j

    def test_ingest_copies_complex_data(self):
        data = np.array([1.0 + 0j, 0.0])
        assert Statevector(1, data).data is not data
        rho = np.outer(data, data.conj()).ravel()
        assert DensityMatrix(1, rho).data is not rho

    def test_ingest_rejects_non_numeric(self):
        with pytest.raises(TypeError, match="dtype"):
            Statevector(1, np.array(["a", "b"]))
        with pytest.raises(TypeError, match="dtype"):
            DensityMatrix(1, np.array(["a", "b", "c", "d"]))

    def test_apply_pauli_rejects_float64(self):
        # regression: apply_pauli(float64_state, "y", 0) used to emit a
        # ComplexWarning and silently zero the state
        state = np.zeros(4, dtype=np.float64)
        state[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="complex"):
                kernels.apply_pauli(state, "y", 0)
        assert state[0] == 1.0  # untouched, not corrupted

    def test_apply_gate_rejects_int64(self):
        # regression: an int64 state through apply_gate(h) used to
        # truncate the amplitudes to integers
        from repro.core.circuit import QuantumCircuit

        circ = QuantumCircuit(1)
        circ.h(0)
        state = np.array([1, 0], dtype=np.int64)
        with pytest.raises(TypeError, match="complex"):
            kernels.apply_gate(state, circ.gates[0], 1)

    def test_apply_matrix_and_apply_ops_reject_real(self):
        matrix = np.eye(2, dtype=complex)
        with pytest.raises(TypeError, match="apply_matrix"):
            kernels.apply_matrix(np.ones(2), matrix, [0], 1)
        with pytest.raises(TypeError, match="apply_ops"):
            kernels.apply_ops(np.ones(2), [], 1)

    def test_statevector_upcasts_real_data_on_ingest(self):
        # the supported route for real input: upcast at construction
        sv = Statevector(1, data=np.array([1.0, 0.0]))
        assert sv.data.dtype == np.complex128
        kernels.apply_pauli(sv.data, "y", 0, 1)
        assert np.allclose(sv.data, [0.0, 1j])
