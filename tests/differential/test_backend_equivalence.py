"""Differential harness for the kernel layer's array sweeps.

Property: however the kernels execute a circuit — fused or unfused,
batched or looped — the amplitudes must agree to 1e-12 with each other
and with the dense tensordot reference (``tests/_dense_reference.py``),
and the batched noisy sampler must reproduce the exact distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_reference as dense
from _helpers import apply_per_gate, density_from_statevector

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import QE5_NOISE, monte_carlo
from repro.simulator import kernels
from repro.simulator.statevector import Statevector

ATOL = 1e-12


# ----------------------------------------------------------------------
# strategies: random circuits over the full named-gate vocabulary
# ----------------------------------------------------------------------
@st.composite
def circuits(draw, min_qubits=2, max_qubits=5):
    n = draw(st.integers(min_qubits, max_qubits))
    depth = draw(st.integers(1, 25))
    rng_seed = draw(st.integers(0, 2**31))
    import random

    rng = random.Random(rng_seed)
    circ = QuantumCircuit(n)
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"]
    for _ in range(depth):
        r = rng.random()
        if r < 0.35:
            getattr(circ, rng.choice(one_q))(rng.randrange(n))
        elif r < 0.55:
            getattr(circ, rng.choice(["rx", "ry", "rz", "p"]))(
                rng.uniform(-3.0, 3.0), rng.randrange(n)
            )
        elif r < 0.80:
            a, b = rng.sample(range(n), 2)
            getattr(circ, rng.choice(["cx", "cz", "ch", "swap"]))(a, b)
        elif r < 0.90 and n >= 3:
            a, b, c = rng.sample(range(n), 3)
            circ.ccx(a, b, c)
        else:
            a, b = rng.sample(range(n), 2)
            circ.crz(rng.uniform(-3.0, 3.0), a, b)
    return circ


def random_state(num_qubits, seed, batch=()):
    gen = np.random.default_rng(seed)
    shape = (1 << num_qubits,) + batch
    data = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    data /= np.linalg.norm(data, axis=0)
    return data


def evolve_on(circ, state):
    out = np.array(state, dtype=complex)
    ops = kernels.compile_circuit(circ.gates)
    kernels.apply_ops(out, ops, circ.num_qubits)
    return out


def evolve_per_gate(circ, state):
    out = np.array(state, dtype=complex)
    apply_per_gate(out, circ.gates, circ.num_qubits)
    return out


# ----------------------------------------------------------------------
# NumPy properties
# ----------------------------------------------------------------------
class TestNumpyProperties:
    @given(circuits())
    @settings(max_examples=25)
    def test_fused_matches_unfused(self, circ):
        state = random_state(circ.num_qubits, 7)
        fused = evolve_on(circ, state)
        unfused = evolve_per_gate(circ, state)
        np.testing.assert_allclose(fused, unfused, atol=ATOL)

    @given(circuits())
    @settings(max_examples=15)
    def test_batched_kernels_match_column_loop(self, circ):
        n = circ.num_qubits
        batch = random_state(n, 13, batch=(4,))
        looped = batch.copy()
        for col in range(4):
            column = np.ascontiguousarray(looped[:, col])
            kernels.apply_ops(
                column, kernels.compile_circuit(circ.gates), n
            )
            looped[:, col] = column
        batched = batch.copy()
        kernels.apply_ops(batched, kernels.compile_circuit(circ.gates), n)
        np.testing.assert_allclose(batched, looped, atol=ATOL)

    def test_sampler_noiseless_matches_exact_distribution(self):
        bell = QuantumCircuit(2, 2)
        bell.h(0)
        bell.cx(0, 1)
        bell.measure(0, 0)
        bell.measure(1, 1)
        result = engines.run("monte_carlo", bell, shots=4000, seed=5)
        assert set(result.counts) == {0, 3}
        assert sum(result.counts.values()) == 4000
        assert abs(result.counts[0] / 4000 - 0.5) < 0.05

    def test_sampler_noisy_keeps_bell_dominant(self):
        bell = QuantumCircuit(2, 2)
        bell.h(0)
        bell.cx(0, 1)
        bell.measure(0, 0)
        bell.measure(1, 1)
        result = engines.run(
            "monte_carlo", bell, shots=4000, noise=QE5_NOISE, seed=5
        )
        assert sum(result.counts.values()) == 4000
        dominant = (result.counts.get(0, 0) + result.counts.get(3, 0)) / 4000
        assert dominant > 0.75  # QE5 rates: correct pair dominates

    def test_sampler_handles_reset_and_midcircuit_measure(self):
        circ = QuantumCircuit(2, 2)
        circ.h(0)
        circ.measure(0, 0)
        circ.reset(0)
        circ.x(0)
        circ.measure(0, 1)
        result = engines.run("monte_carlo", circ, shots=600, seed=2)
        # bit 1 is always 1 after reset + x; bit 0 is a fair coin
        assert set(result.counts) <= {0b10, 0b11}
        assert sum(result.counts.values()) == 600

    def test_sampler_stream_unchanged_when_shots_fill_one_chunk(
        self, monkeypatch
    ):
        # a guard exactly one run's worth of state still means a
        # single chunk, so the RNG stream matches an unbounded guard
        circ = _noisy_probe()
        unbounded = engines.run(
            "monte_carlo", circ, shots=300, noise=QE5_NOISE, seed=19
        )
        monkeypatch.setattr(
            monte_carlo, "MAX_BATCH_BYTES", 300 * (1 << circ.num_qubits) * 16
        )
        exact_fit = engines.run(
            "monte_carlo", circ, shots=300, noise=QE5_NOISE, seed=19
        )
        assert exact_fit.counts == unbounded.counts

    @pytest.mark.parametrize("shots_per_chunk", [1, 7, 64])
    def test_sampler_chunks_keep_the_distribution(
        self, shots_per_chunk, monkeypatch
    ):
        # chunking partitions the shots: a noiseless Bell pair stays a
        # fair coin on {00, 11} whatever the chunk size and remainder
        circ = QuantumCircuit(2, 2)
        circ.h(0)
        circ.cx(0, 1)
        circ.measure(0, 0)
        circ.measure(1, 1)
        monkeypatch.setattr(
            monte_carlo, "MAX_BATCH_BYTES", shots_per_chunk * (1 << 2) * 16
        )
        result = engines.run("monte_carlo", circ, shots=1000, seed=23)
        assert set(result.counts) == {0, 3}
        assert sum(result.counts.values()) == 1000
        assert abs(result.counts[0] / 1000 - 0.5) < 0.06

    def test_sampler_guard_below_one_shot_still_runs(self, monkeypatch):
        # max(1, ...) : a guard smaller than one state is one shot
        # per chunk, never zero
        circ = _noisy_probe()
        monkeypatch.setattr(monte_carlo, "MAX_BATCH_BYTES", 1)

        def run():
            return engines.run(
                "monte_carlo", circ, shots=40, noise=QE5_NOISE, seed=3
            )

        first = run()
        assert sum(first.counts.values()) == 40
        assert run().counts == first.counts


def _noisy_probe():
    circ = QuantumCircuit(3, 3)
    circ.h(0)
    circ.cx(0, 1)
    circ.t(2)
    circ.ccx(0, 1, 2)
    circ.measure_all()
    return circ


# ----------------------------------------------------------------------
# kernels vs the dense tensordot reference
# ----------------------------------------------------------------------
def _unitary_gates(circ):
    return [gate for gate in circ.gates if gate.name != "barrier"]


class TestDenseReferenceDifferential:
    @given(circuits())
    @settings(max_examples=20, deadline=None)
    def test_gate_vocabulary_matches(self, circ):
        state = random_state(circ.num_qubits, 3)
        np.testing.assert_allclose(
            evolve_per_gate(circ, state),
            dense.evolve(state, _unitary_gates(circ)),
            atol=ATOL,
        )

    @given(circuits())
    @settings(max_examples=20, deadline=None)
    def test_fused_ops_match(self, circ):
        # fusion routes dense runs through the block sweep
        state = random_state(circ.num_qubits, 9)
        np.testing.assert_allclose(
            evolve_on(circ, state),
            dense.evolve(state, _unitary_gates(circ)),
            atol=ATOL,
        )

    @given(circuits(max_qubits=4))
    @settings(max_examples=10, deadline=None)
    def test_batched_states_match(self, circ):
        n = circ.num_qubits
        batch = random_state(n, 21, batch=(3,))
        out = batch.copy()
        kernels.apply_ops(out, kernels.compile_circuit(circ.gates), n)
        for col in range(3):
            np.testing.assert_allclose(
                out[:, col],
                dense.evolve(batch[:, col], _unitary_gates(circ)),
                atol=ATOL,
            )

    @given(circuits(max_qubits=3))
    @settings(max_examples=10, deadline=None)
    def test_density_matrix_evolution_matches(self, circ):
        # the two kernel passes of DensityMatrix.apply_gate must give
        # U rho U^+ for a pure rho = |psi><psi|
        psi = random_state(circ.num_qubits, 31)
        rho = density_from_statevector(Statevector(circ.num_qubits, psi))
        for gate in _unitary_gates(circ):
            rho.apply_gate(gate)
        out = dense.evolve(psi, _unitary_gates(circ))
        np.testing.assert_allclose(
            rho.matrix(), np.outer(out, out.conj()), atol=ATOL
        )

    @pytest.mark.parametrize("gamma", [0.15, 0.5, 1.0])
    def test_amplitude_damping_matches_kraus_sum(self, gamma):
        # sum_k K_k rho K_k^+ with each K_k applied to rho's columns
        # and rows by the reference's tensordot path
        n, qubit = 3, 1
        psi = random_state(n, 37)
        rho = density_from_statevector(Statevector(n, psi))
        rho.apply_channel("amplitude_damping", gamma, qubit)
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
        ]
        expected = np.zeros((1 << n, 1 << n), dtype=complex)
        for k in kraus:
            branch = dense.apply_matrix(psi, k.astype(complex), [qubit])
            expected += np.outer(branch, branch.conj())
        np.testing.assert_allclose(rho.matrix(), expected, atol=ATOL)

    def test_wide_state_matches(self):
        # 17 qubits: every sweep runs on a state far past cache size
        n = 17
        circ = QuantumCircuit(n)
        for q in range(n):
            circ.h(q)
        for q in range(n - 1):
            circ.cx(q, q + 1)
        circ.rz(0.37, 5)
        circ.swap(2, 11)
        circ.ccx(0, 8, 16)
        circ.crz(-1.1, 16, 3)
        state = random_state(n, 29)
        np.testing.assert_allclose(
            evolve_on(circ, state),
            dense.evolve(state, circ.gates),
            atol=ATOL,
        )

    def test_simulator_state_and_counts_match_reference(self):
        # the simulator's final state is the reference's, and a shared
        # seed gives identical counts run after run
        circ = QuantumCircuit(3, 3)
        circ.h(0)
        circ.cx(0, 1)
        circ.ccx(0, 1, 2)
        circ.t(2)
        ground = Statevector(3).data
        np.testing.assert_allclose(
            Statevector(3).evolve(circ).data,
            dense.evolve(ground, circ.gates),
            atol=ATOL,
        )
        circ.measure_all()
        first = engines.run("statevector", circ, shots=512, seed=11)
        again = engines.run("statevector", circ, shots=512, seed=11)
        assert first.counts == again.counts
        assert set(first.counts) == {0b000, 0b111}
