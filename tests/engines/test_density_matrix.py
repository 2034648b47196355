"""The exact density-matrix engine: PTM algebra, evolution, channels."""

import math

import numpy as np
import pytest

import _ptm_reference as reference
from _helpers import purity

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.engines import ptm
from repro.engines.density_matrix import (
    MAX_QUBITS,
    DensityMatrix,
    DensityMatrixResult,
    _conjugate_gate,
    _mix_readout,
)
from repro.engines.noise import NoiseModel
from repro.simulator.statevector import Statevector


class TestPTM:
    def test_identity_unitary_is_identity_ptm(self):
        assert np.allclose(reference.unitary_ptm(np.eye(2)), np.eye(4))

    def test_hadamard_ptm_swaps_x_and_z(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        r = reference.unitary_ptm(h)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        expected[1, 3] = expected[3, 1] = 1.0
        expected[2, 2] = -1.0
        assert np.allclose(r, expected)

    def test_kraus_ptm_matches_unitary_ptm(self):
        s = np.diag([1.0, 1j])
        assert np.allclose(reference.kraus_ptm([s]), reference.unitary_ptm(s))

    def test_amplitude_damping_from_kraus(self):
        gamma = 0.3
        k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]])
        k1 = np.array([[0, math.sqrt(gamma)], [0, 0]])
        assert np.allclose(
            reference.kraus_ptm([k0, k1]), ptm.amplitude_damping_ptm(gamma)
        )

    def test_phase_damping_from_kraus(self):
        lam = 0.4
        k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]])
        k1 = np.array([[0, 0], [0, math.sqrt(lam)]])
        assert np.allclose(
            reference.kraus_ptm([k0, k1]), ptm.phase_damping_ptm(lam)
        )

    def test_depolarizing_is_monte_carlo_convention(self):
        # probability p: one of X/Y/Z uniformly -> fidelity 1 - 4p/3
        p = 0.09
        r = ptm.depolarizing_ptm(p)
        fidelity = 1 - 4 * p / 3
        assert np.allclose(np.diag(r), [1.0, fidelity, fidelity, fidelity])
        assert np.allclose(r, np.diag(np.diag(r)))

    def test_trace_preservation_and_unitality(self):
        assert reference.is_trace_preserving(ptm.amplitude_damping_ptm(0.5))
        assert not reference.is_unital(ptm.amplitude_damping_ptm(0.5))
        assert reference.is_unital(ptm.phase_damping_ptm(0.5))
        assert reference.is_unital(ptm.depolarizing_ptm(0.5))

    def test_compose_order_first_acts_first(self):
        x = reference.unitary_ptm(np.array([[0, 1], [1, 0]]))
        damp = ptm.amplitude_damping_ptm(1.0)
        # X then full damping: everything lands on |0>
        composed = reference.compose_ptms(x, damp)
        assert np.allclose(composed, damp @ x)

    def test_superoperator_roundtrip(self):
        r = ptm.amplitude_damping_ptm(0.37)
        s = ptm.ptm_to_superoperator(r)
        assert np.allclose(reference.superoperator_to_ptm(s), r)

    def test_superoperator_acts_on_vec_rho(self):
        # damping the excited state: rho = |1><1| -> diag(g, 1-g)
        gamma = 0.25
        s = ptm.ptm_to_superoperator(ptm.amplitude_damping_ptm(gamma))
        rho = np.array([0, 0, 0, 1.0], dtype=complex)  # vec(|1><1|)
        out = (s @ rho).reshape(2, 2)
        assert np.allclose(out, np.diag([gamma, 1 - gamma]))

    def test_channel_superoperator_cached_and_readonly(self):
        a = ptm.channel_superoperator("depolarizing", 0.1)
        b = ptm.channel_superoperator("depolarizing", 0.1)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 2.0

    def test_rates_validated(self):
        for build in (
            ptm.amplitude_damping_ptm,
            ptm.phase_damping_ptm,
            ptm.depolarizing_ptm,
            reference.readout_assignment,
        ):
            with pytest.raises(ValueError, match="not in"):
                build(1.5)

    def test_readout_assignment_is_stochastic(self):
        m = reference.readout_assignment(0.04)
        assert np.allclose(m.sum(axis=0), [1.0, 1.0])
        # the engine's readout mixing is this matrix on the read bit
        probs = np.array([0.7, 0.3])
        assert np.allclose(_mix_readout(probs, 0, 0.04), m @ probs)


class TestConjugateGate:
    def _assert_conjugate(self, gate: Gate):
        conj = _conjugate_gate(gate)
        assert conj is not None
        assert np.allclose(conj.matrix(), np.conj(gate.matrix()))

    def test_real_gates_are_self_conjugate(self):
        for gate in (
            Gate("h", (0,)),
            Gate("x", (0,)),
            Gate("cx", (1,), (0,)),
            Gate("swap", (0, 1)),
            Gate("ccx", (2,), (0, 1)),
            Gate("ry", (0,), params=(0.7,)),
        ):
            assert _conjugate_gate(gate) is gate

    def test_adjoint_pairs_swap(self):
        self._assert_conjugate(Gate("s", (0,)))
        self._assert_conjugate(Gate("tdg", (0,)))
        self._assert_conjugate(Gate("sx", (0,)))

    def test_rotations_negate_angle(self):
        self._assert_conjugate(Gate("rx", (0,), params=(0.3,)))
        self._assert_conjugate(Gate("rz", (0,), params=(-1.1,)))
        self._assert_conjugate(Gate("p", (0,), params=(0.5,)))
        self._assert_conjugate(Gate("cp", (1,), (0,), params=(0.5,)))

    def test_y_has_no_named_conjugate(self):
        # conj(Y) = -Y: same adjoint, opposite sign — must NOT reuse y
        assert _conjugate_gate(Gate("y", (0,))) is None
        assert _conjugate_gate(Gate("cy", (1,), (0,))) is None


class TestDensityMatrix:
    def test_initial_state(self):
        rho = DensityMatrix(2)
        assert np.allclose(rho.matrix(), np.diag([1.0, 0, 0, 0]))
        assert rho.trace() == pytest.approx(1.0)
        assert purity(rho) == pytest.approx(1.0)

    def test_width_cap(self):
        with pytest.raises(engines.EngineError, match="caps at"):
            DensityMatrix(MAX_QUBITS + 1)

    def test_pure_evolution_matches_statevector(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.t(1)
        circuit.y(2)
        circuit.cx(0, 1)
        circuit.sdg(2)
        circuit.cz(1, 2)
        circuit.sx(0)
        circuit.rx(0.4, 1)
        circuit.rz(-0.9, 2)
        circuit.swap(0, 2)
        circuit.ccx(0, 1, 2)
        circuit.cy(0, 2)
        state = Statevector(circuit.num_qubits).evolve(circuit)
        rho = DensityMatrix(3)
        for gate in circuit.gates:
            rho.apply_gate(gate)
        expected = np.outer(state.data, state.data.conj())
        assert np.max(np.abs(rho.matrix() - expected)) < 1e-10
        assert purity(rho) == pytest.approx(1.0)

    def test_depolarizing_mixes_toward_identity(self):
        rho = DensityMatrix(1)
        rho.apply_gate(Gate("h", (0,)))
        rho.apply_channel("depolarizing", 0.75, 0)  # fidelity 0
        assert np.allclose(rho.matrix(), np.eye(2) / 2)
        assert purity(rho) == pytest.approx(0.5)

    def test_amplitude_damping_relaxes_to_ground(self):
        rho = DensityMatrix(1)
        rho.apply_gate(Gate("x", (0,)))
        rho.apply_channel("amplitude_damping", 0.3, 0)
        assert np.allclose(rho.matrix(), np.diag([0.3, 0.7]))
        assert rho.trace() == pytest.approx(1.0)

    def test_phase_damping_kills_coherence_not_populations(self):
        rho = DensityMatrix(1)
        rho.apply_gate(Gate("h", (0,)))
        rho.apply_channel("phase_damping", 1.0, 0)
        assert np.allclose(rho.matrix(), np.eye(2) / 2)

    def test_reset_is_full_damping(self):
        rho = DensityMatrix(2)
        rho.apply_gate(Gate("h", (0,)))
        rho.apply_gate(Gate("cx", (1,), (0,)))
        rho.reset_qubit(1)
        probs = rho.probabilities()
        # qubit 1 back in |0>, qubit 0 keeps its mixed marginal
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.0)
        assert probs[3] == pytest.approx(0.0)


class TestDensityMatrixEngine:
    def test_bell_counts_and_exact_probabilities(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        result = engines.run("density_matrix", circuit, shots=4096, seed=5)
        assert isinstance(result, DensityMatrixResult)
        assert set(result.counts) == {0, 3}
        assert sum(result.counts.values()) == 4096
        assert result.probability(0) == pytest.approx(0.5, abs=1e-12)
        assert result.probability(3) == pytest.approx(0.5, abs=1e-12)
        assert result.probability(1) == pytest.approx(0.0, abs=1e-12)
        assert result.probability(99) == 0.0

    def test_sampling_is_seeded(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        a = engines.run("dm", circuit, shots=100, seed=9).counts
        b = engines.run("dm", circuit, shots=100, seed=9).counts
        assert a == b

    def test_partial_measurement_marginalizes(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        result = engines.run("density_matrix", circuit, shots=0)
        assert result.exact_probabilities.shape == (2,)
        assert result.probability(0) == pytest.approx(0.5)
        assert result.probability(1) == pytest.approx(0.5)

    def test_no_measurements_reports_full_diagonal(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        result = engines.run("density_matrix", circuit, shots=16)
        assert result.counts == {}
        assert result.exact_probabilities.shape == (4,)
        assert result.probability(0) == pytest.approx(0.5)

    def test_readout_error_mixes_measured_bits_only(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        model = NoiseModel(
            p1=0.0, p2=0.0, p_meas=0.1, p_multi=0.0
        )
        result = engines.run("density_matrix", circuit, noise=model, shots=0)
        assert result.probability(1) == pytest.approx(0.9)
        assert result.probability(0) == pytest.approx(0.1)

    def test_gate_noise_uses_gate_class_rates(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        # full depolarizing after the single X: uniform outcome
        model = NoiseModel(p1=0.75, p2=0.0, p_meas=0.0, p_multi=0.0)
        result = engines.run("density_matrix", circuit, noise=model, shots=0)
        assert result.probability(0) == pytest.approx(0.5)

    def test_mid_circuit_measurement_rejected(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        with pytest.raises(engines.EngineError, match="terminal"):
            engines.run("density_matrix", circuit)

    def test_unknown_option_rejected(self):
        with pytest.raises(engines.EngineError, match="unknown option"):
            engines.run("density_matrix", QuantumCircuit(1), fusion=False)

    def test_width_cap_enforced(self):
        with pytest.raises(engines.EngineError, match="caps at"):
            engines.run("density_matrix", QuantumCircuit(MAX_QUBITS + 1))

    def test_reset_instruction(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.reset(0)
        circuit.measure(0, 0)
        result = engines.run("density_matrix", circuit, shots=0)
        assert result.probability(0) == pytest.approx(1.0)
