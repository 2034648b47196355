"""Differential tests: exact tier vs pure states and vs Monte-Carlo.

Three cross-checks pin the density-matrix engine to the rest of the
stack:

* zero noise: ``rho`` equals the statevector's ``|psi><psi|`` to
  1e-10 on random Clifford+T circuits (Hypothesis);
* depolarizing + readout noise: exact probabilities sit inside the
  Monte-Carlo sampler's sampling error (the exact engine is the
  trajectory average of the sampler, channel-for-channel);
* the paper's Fig. 6 run: hidden-shift recovery under the IBM QE5
  calibration lands at ~0.63, read deterministically off ``rho``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _helpers import purity

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import NoiseModel, QE5_NOISE
from repro.engines.density_matrix import DensityMatrix
from repro.simulator.statevector import Statevector

#: gate vocabulary for random circuits: (name, arity, has_param)
_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx")
_TWO_QUBIT = ("cx", "cz", "cy", "swap")


@st.composite
def random_circuits(draw, max_qubits=4, max_gates=24):
    """A random universal circuit (no measurements)."""
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    circuit = QuantumCircuit(n, n)
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            name = draw(st.sampled_from(_ONE_QUBIT))
            getattr(circuit, name)(draw(st.integers(0, n - 1)))
        elif kind == 1:
            name = draw(st.sampled_from(_TWO_QUBIT))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            getattr(circuit, name)(a, b)
        elif kind == 2:
            angle = draw(
                st.floats(-math.pi, math.pi, allow_nan=False)
            )
            name = draw(st.sampled_from(("rx", "ry", "rz", "p")))
            getattr(circuit, name)(angle, draw(st.integers(0, n - 1)))
        else:
            if n >= 3:
                wires = draw(
                    st.permutations(range(n)).map(lambda p: p[:3])
                )
                circuit.ccx(*wires)
    return circuit


class TestZeroNoiseAgreement:
    @given(random_circuits())
    def test_rho_is_statevector_outer_product(self, circuit):
        state = Statevector(circuit.num_qubits).evolve(circuit, fuse=False)
        rho = DensityMatrix(circuit.num_qubits)
        for gate in circuit.gates:
            rho.apply_gate(gate)
        expected = np.outer(state.data, state.data.conj())
        assert np.max(np.abs(rho.matrix() - expected)) < 1e-10

    @given(random_circuits(max_qubits=3, max_gates=12))
    def test_engine_probabilities_match_statevector(self, circuit):
        circuit.measure_all()
        exact = engines.run("density_matrix", circuit, shots=0)
        state = engines.run("statevector", circuit, shots=0).final_state
        assert np.allclose(
            exact.exact_probabilities,
            state.probabilities(),
            atol=1e-10,
        )


class TestMonteCarloAgreement:
    def test_depolarizing_and_readout_within_sampling_tolerance(
        self, fig6_circuit
    ):
        """Exact probabilities sit in the sampler's confidence band."""
        circuit = fig6_circuit
        shots = 8192
        exact = engines.run(
            "density_matrix", circuit, noise=QE5_NOISE, shots=0
        )
        sampled = engines.run(
            "monte_carlo", circuit, noise=QE5_NOISE, shots=shots, seed=20180308
        )
        for outcome in range(16):
            p = exact.probability(outcome)
            estimate = sampled.counts.get(outcome, 0) / shots
            # 5 sigma of the binomial estimator
            sigma = math.sqrt(max(p * (1 - p), 1e-6) / shots)
            assert abs(estimate - p) < 5 * sigma + 1e-9

    def test_pure_depolarizing_single_qubit_closed_form(self):
        """One X + depolarizing p: P(0) = 2p/3 exactly, both tiers."""
        p = 0.3
        model = NoiseModel(p1=p, p2=0.0, p_meas=0.0, p_multi=0.0)
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        exact = engines.run("density_matrix", circuit, noise=model, shots=0)
        assert exact.probability(0) == pytest.approx(2 * p / 3)
        shots = 20000
        sampled = engines.run(
            "monte_carlo", circuit, noise=model, shots=shots, seed=77
        )
        estimate = sampled.counts.get(0, 0) / shots
        assert estimate == pytest.approx(2 * p / 3, abs=0.02)


class TestFig6Recovery:
    def test_ideal_run_returns_shift_deterministically(self, fig6_circuit):
        result = engines.run("density_matrix", fig6_circuit, shots=0)
        assert result.most_frequent() == 1  # s = 0001
        assert result.probability(1) == pytest.approx(1.0, abs=1e-10)

    def test_qe5_recovery_matches_paper(self, fig6_circuit):
        """Fig. 6: the shift survives with probability ~0.63."""
        result = engines.run(
            "density_matrix", fig6_circuit, noise="qe5", shots=0
        )
        recovery = result.probability(1)
        assert 0.55 < recovery < 0.72
        assert result.most_frequent() == 1
        # deterministic: no shots were sampled, rerunning is exact
        again = engines.run(
            "density_matrix", fig6_circuit, noise="qe5", shots=0
        )
        assert again.probability(1) == recovery

    def test_trace_preserved_under_noise(self, fig6_circuit):
        result = engines.run(
            "density_matrix", fig6_circuit, noise="qe5", shots=0
        )
        assert result.density.trace() == pytest.approx(1.0, abs=1e-9)
        assert purity(result.density) < 1.0
