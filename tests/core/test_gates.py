"""Unit tests for the gate library."""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.core.gates import (
    Gate,
    gate_matrix,
    is_clifford_name,
    is_clifford_t_name,
    rotation_matrix,
)


class TestGateConstruction:
    def test_simple_gate(self):
        gate = Gate("h", (0,))
        assert gate.name == "h"
        assert gate.targets == (0,)
        assert gate.controls == ()
        assert gate.num_qubits == 1

    def test_controlled_gate_qubits_order(self):
        gate = Gate("cx", (2,), (5,))
        assert gate.qubits == (5, 2)
        assert gate.num_qubits == 2

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1,), (1,))

    def test_measurement_flags(self):
        gate = Gate("measure", (0,), cbits=(0,))
        assert gate.is_measurement
        assert not gate.is_unitary

    def test_base_name(self):
        assert Gate("ccx", (2,), (0, 1)).base_name == "x"
        assert Gate("mcz", (3,), (0, 1, 2)).base_name == "z"
        assert Gate("h", (0,)).base_name == "h"


class TestGateContract:
    """``qubits`` is stored once and stays out of the gate's value."""

    def test_qubits_stored_controls_then_targets(self):
        gate = Gate("ccx", (4,), (2, 0))
        assert gate.qubits == (2, 0, 4)
        assert gate.qubits is gate.qubits
        assert Gate("swap", (3, 1)).qubits == (3, 1)

    def test_slotted(self):
        gate = Gate("h", (0,))
        assert not hasattr(gate, "__dict__")
        with pytest.raises(AttributeError):
            gate.qubits = (1,)

    def test_qubits_absent_from_repr(self):
        assert repr(Gate("cx", (1,), (0,))) == (
            "Gate(name='cx', targets=(1,), controls=(0,), params=(), "
            "cbits=())"
        )

    def test_qubits_absent_from_eq_and_hash(self):
        gate = Gate("cp", (1,), (0,), (0.5,))
        twin = Gate("cp", (1,), (0,), (0.5,))
        assert gate == twin
        assert hash(gate) == hash(("cp", (1,), (0,), (0.5,), ()))
        assert Gate("cx", (1,), (0,)) != Gate("cx", (0,), (1,))

    def test_pickle_leaves_qubits_out_and_restores_them(self):
        gate = Gate("measure", (2,), cbits=(1,))
        data = pickle.dumps(gate)
        assert b"qubits" not in data
        assert pickle.loads(data).__getstate__() == {
            "name": "measure", "targets": (2,), "controls": (),
            "params": (), "cbits": (1,),
        }
        # the exact bytes an unslotted Gate pickled to
        assert pickle.dumps(Gate("cx", (1,), (0,)), protocol=4) == (
            b"\x80\x04\x95a\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.core"
            b".gates\x94\x8c\x04Gate\x94\x93\x94)\x81\x94}\x94(\x8c\x04name"
            b"\x94\x8c\x02cx\x94\x8c\x07targets\x94K\x01\x85\x94\x8c\x08cont"
            b"rols\x94K\x00\x85\x94\x8c\x06params\x94)\x8c\x05cbits\x94)ub."
        )
        clone = pickle.loads(pickle.dumps(Gate("ccx", (2,), (0, 1))))
        assert clone == Gate("ccx", (2,), (0, 1))
        assert clone.qubits == (0, 1, 2)

    def test_pickle_hooks_survive_the_dataclass_decorator(self):
        # frozen slotted dataclasses may install their own hooks, which
        # pickle every field (``qubits`` included) by position
        from repro.core import gates

        assert Gate.__getstate__ is gates._gate_getstate
        assert Gate.__setstate__ is gates._gate_setstate
        gate = Gate("cp", (2,), (0,), (0.25,))
        for clone in (copy.copy(gate), copy.deepcopy(gate)):
            assert clone == gate
            assert clone.qubits == (0, 2)

    def test_duplicate_qubit_still_rejected(self):
        with pytest.raises(ValueError, match="duplicate qubit"):
            Gate("cx", (1,), (1,))
        with pytest.raises(ValueError, match="duplicate qubit"):
            Gate("cx", (1,), (0,)).remap({0: 2, 1: 2})


class TestGateMatrices:
    def test_hadamard_unitary(self):
        matrix = gate_matrix(Gate("h", (0,)))
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2))
        assert np.allclose(matrix, matrix.T)

    def test_pauli_algebra(self):
        x = gate_matrix(Gate("x", (0,)))
        y = gate_matrix(Gate("y", (0,)))
        z = gate_matrix(Gate("z", (0,)))
        assert np.allclose(x @ y, 1j * z)
        assert np.allclose(x @ x, np.eye(2))

    def test_t_squared_is_s(self):
        t = gate_matrix(Gate("t", (0,)))
        s = gate_matrix(Gate("s", (0,)))
        assert np.allclose(t @ t, s)

    def test_s_squared_is_z(self):
        s = gate_matrix(Gate("s", (0,)))
        z = gate_matrix(Gate("z", (0,)))
        assert np.allclose(s @ s, z)

    def test_cnot_matrix_is_permutation(self):
        matrix = gate_matrix(Gate("cx", (0,), (1,)))
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert np.allclose(matrix, expected)

    def test_ccx_matrix_block(self):
        matrix = gate_matrix(Gate("ccx", (0,), (1, 2)))
        assert matrix.shape == (8, 8)
        # identity except bottom-right 2x2 block
        assert np.allclose(matrix[:6, :6], np.eye(6))
        assert np.allclose(matrix[6:, 6:], [[0, 1], [1, 0]])

    def test_rotation_gates_unitary(self):
        for name in ("rx", "ry", "rz", "p"):
            for angle in (0.3, -1.2, math.pi):
                matrix = rotation_matrix(name, angle)
                assert np.allclose(
                    matrix @ matrix.conj().T, np.eye(2), atol=1e-12
                )

    def test_rz_2pi_is_minus_identity(self):
        matrix = rotation_matrix("rz", 2 * math.pi)
        assert np.allclose(matrix, -np.eye(2))

    def test_p_pi_is_z(self):
        assert np.allclose(
            rotation_matrix("p", math.pi), gate_matrix(Gate("z", (0,)))
        )

    def test_swap_matrix(self):
        matrix = gate_matrix(Gate("swap", (0, 1)))
        state_01 = np.zeros(4)
        state_01[1] = 1.0
        assert np.allclose(matrix @ state_01, [0, 0, 1, 0])

    def test_non_unitary_has_no_matrix(self):
        with pytest.raises(ValueError):
            gate_matrix(Gate("measure", (0,), cbits=(0,)))


class TestDagger:
    def test_self_inverse(self):
        for name in ("h", "x", "y", "z", "swap"):
            targets = (0, 1) if name == "swap" else (0,)
            gate = Gate(name, targets)
            assert gate.dagger() == gate

    def test_adjoint_pairs(self):
        assert Gate("t", (0,)).dagger().name == "tdg"
        assert Gate("tdg", (0,)).dagger().name == "t"
        assert Gate("s", (0,)).dagger().name == "sdg"
        assert Gate("sx", (0,)).dagger().name == "sxdg"

    def test_rotation_dagger_negates_angle(self):
        gate = Gate("rz", (0,), params=(0.7,))
        assert gate.dagger().params == (-0.7,)

    def test_dagger_matrix_is_adjoint(self):
        for name, targets, controls, params in [
            ("t", (0,), (), ()),
            ("rz", (0,), (), (0.4,)),
            ("crz", (1,), (0,), (1.1,)),
            ("cp", (1,), (0,), (-0.2,)),
        ]:
            gate = Gate(name, targets, controls, params)
            assert np.allclose(
                gate.dagger().matrix(), gate.matrix().conj().T
            )

    def test_measure_cannot_be_inverted(self):
        with pytest.raises(ValueError):
            Gate("measure", (0,), cbits=(0,)).dagger()


class TestRemapAndClassify:
    def test_remap(self):
        gate = Gate("ccx", (2,), (0, 1))
        mapped = gate.remap({0: 5, 1: 6, 2: 7})
        assert mapped.targets == (7,)
        assert mapped.controls == (5, 6)

    def test_clifford_t_membership(self):
        assert is_clifford_t_name("t")
        assert is_clifford_t_name("cx")
        assert not is_clifford_t_name("ccx")
        assert not is_clifford_t_name("mcx")

    def test_clifford_membership(self):
        assert is_clifford_name("h")
        assert is_clifford_name("cx")
        assert not is_clifford_name("t")
        assert is_clifford_name("rz", (math.pi / 2,))
        assert not is_clifford_name("rz", (math.pi / 4,))
