"""Unit tests for the ``monte_carlo`` engine (the IBM QE substitute)."""

import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.engines import QE5_NOISE, NoiseModel
from repro.engines.monte_carlo import run_repeated


def bell_measure_circuit():
    circ = QuantumCircuit(2, 2).h(0).cx(0, 1)
    circ.measure(0, 0).measure(1, 1)
    return circ


def run(circuit, shots, noise=None, seed=None):
    return engines.run(
        "monte_carlo", circuit, shots=shots, noise=noise, seed=seed
    )


class TestNoiseModel:
    def test_gate_error_classes(self):
        model = NoiseModel(p1=0.01, p2=0.02, p_meas=0.03, p_multi=0.04)
        assert model.gate_error(Gate("h", (0,))) == 0.01
        assert model.gate_error(Gate("cx", (1,), (0,))) == 0.02
        assert model.gate_error(Gate("ccx", (2,), (0, 1))) == 0.04

    def test_presets(self):
        assert NoiseModel.noiseless().p2 == 0.0
        assert NoiseModel.ibm_qe_2018().p2 > 0.01


class TestMonteCarloEngine:
    def test_noiseless_matches_ideal(self):
        result = run(bell_measure_circuit(), 200, seed=3)
        assert set(result.counts) <= {0, 3}
        assert sum(result.counts.values()) == 200

    def test_noise_spreads_outcomes(self):
        model = NoiseModel(p1=0.1, p2=0.2, p_meas=0.1)
        result = run(bell_measure_circuit(), 400, noise=model, seed=3)
        # heavy noise must populate states outside the Bell support
        assert any(k in result.counts for k in (1, 2))

    def test_correct_outcome_still_dominates_at_chip_noise(self):
        circ = QuantumCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)
        result = run(circ, 512, noise=QE5_NOISE, seed=5)
        assert result.most_frequent() == 1
        assert result.probability(1) > 0.7

    def test_seeded_reproducibility(self):
        circ = bell_measure_circuit()
        a = run(circ, 128, noise=QE5_NOISE, seed=7).counts
        b = run(circ, 128, noise=QE5_NOISE, seed=7).counts
        assert a == b

    def test_readout_error_only(self):
        model = NoiseModel(p1=0.0, p2=0.0, p_meas=0.5, p_multi=0.0)
        circ = QuantumCircuit(1, 1).measure(0, 0)
        result = run(circ, 600, noise=model, seed=1)
        # ~half the readouts flip
        assert 200 < result.counts.get(1, 0) < 400

    def test_barrier_ignored(self):
        circ = QuantumCircuit(1, 1).x(0).barrier().measure(0, 0)
        assert run(circ, 10, seed=1).counts == {1: 10}


class TestRunRepeated:
    def test_shapes(self):
        mean, std = run_repeated(
            bell_measure_circuit(), 128, 3, noise=QE5_NOISE, seed=9
        )
        assert mean.shape == (4,)
        assert std.shape == (4,)
        assert mean.sum() == pytest.approx(1.0)

    def test_repetition_r_uses_seed_plus_r(self):
        circ = bell_measure_circuit()
        mean, std = run_repeated(circ, 100, 3, noise="qe5", seed=40)
        probs = [
            [run(circ, 100, noise=QE5_NOISE, seed=40 + r).probability(k)
             for k in range(4)]
            for r in range(3)
        ]
        for k in range(4):
            column = [row[k] for row in probs]
            assert mean[k] == pytest.approx(sum(column) / 3)
        assert std.max() > 0.0  # the repetitions really differ

    def test_default_noise_is_noiseless(self):
        circ = QuantumCircuit(1, 1).x(0).measure(0, 0)
        mean, std = run_repeated(circ, 64, 2, seed=0)
        assert list(mean) == [0.0, 1.0]
        assert list(std) == [0.0, 0.0]
