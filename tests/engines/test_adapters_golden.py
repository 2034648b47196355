"""Golden tests: registry adapters are identical to the direct paths.

The statevector/stabilizer/Monte-Carlo engines are adapters over the
pre-existing simulators; for a fixed seed their output must be
*identical* to calling those simulators directly — the registry adds
dispatch, never behavior.
"""

import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import NoiseModel
from repro.simulator.noise import NoisyBackend
from repro.simulator.stabilizer import StabilizerError, StabilizerSimulator
from repro.simulator.statevector import StatevectorSimulator


def _universal_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.t(1)
    circuit.cx(0, 1)
    circuit.rx(0.3, 2)
    circuit.ccx(0, 1, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


def _clifford_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.s(2)
    circuit.cz(1, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


class TestStatevectorAdapter:
    def test_counts_identical_to_direct_path(self):
        circuit = _universal_circuit()
        for seed in (0, 7, 12345):
            direct = StatevectorSimulator(seed=seed).run(circuit, shots=256)
            via = engines.run("statevector", circuit, shots=256, seed=seed)
            assert via.counts == direct.counts
            assert via.num_clbits == direct.num_clbits
            assert via.shots == direct.shots

    def test_fusion_opt_forwarded(self):
        circuit = _universal_circuit()
        direct = StatevectorSimulator(seed=3, fusion=False).run(
            circuit, shots=64
        )
        via = engines.run(
            "statevector", circuit, shots=64, seed=3, fusion=False
        )
        assert via.counts == direct.counts

    def test_noise_rejected_with_alternatives(self):
        with pytest.raises(engines.EngineError, match="density_matrix"):
            engines.run(
                "statevector", _universal_circuit(), noise="qe5"
            )

    def test_noiseless_model_accepted(self):
        result = engines.run(
            "statevector", _universal_circuit(), shots=8, seed=1,
            noise="none",
        )
        assert sum(result.counts.values()) == 8

    @pytest.mark.parametrize("option", ["frobnicate", "backend"])
    def test_unknown_opt_rejected(self, option):
        with pytest.raises(engines.EngineError, match="unknown option"):
            engines.run("statevector", _universal_circuit(), **{option: 1})


class TestStabilizerAdapter:
    def test_counts_identical_to_direct_path(self):
        circuit = _clifford_circuit()
        for seed in (0, 11, 999):
            direct = StabilizerSimulator(seed=seed).run(circuit, shots=128)
            via = engines.run("stabilizer", circuit, shots=128, seed=seed)
            assert via.counts == direct
            assert via.num_clbits == 3

    def test_non_clifford_error_propagates(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0)
        circuit.measure(0, 0)
        with pytest.raises(StabilizerError, match="not Clifford"):
            engines.run("stabilizer", circuit, shots=1)

    def test_noise_rejected(self):
        with pytest.raises(engines.EngineError, match="does not support"):
            engines.run("stabilizer", _clifford_circuit(), noise="qe5")


class TestMonteCarloAdapter:
    def test_counts_identical_to_direct_path(self):
        circuit = _universal_circuit()
        model = NoiseModel.ibm_qe_2018()
        for seed in (0, 42):
            direct = NoisyBackend(model, seed=seed).run(circuit, shots=200)
            via = engines.run(
                "monte_carlo", circuit, shots=200, noise=model, seed=seed
            )
            assert via.counts == direct.counts

    def test_default_routes_through_batched_sweep(self):
        # a job that fits one chunk draws the batched sweep's RNG
        # stream unchanged: these counts are the single-batch sampler's
        # output for the same seeds, pinned as literals
        circuit = _universal_circuit()
        model = NoiseModel.ibm_qe_2018()
        expected = {
            0: {0: 58, 1: 14, 2: 13, 3: 10, 4: 14, 5: 3, 6: 5, 7: 83},
            42: {0: 59, 1: 16, 2: 14, 3: 14, 4: 12, 5: 6, 6: 6, 7: 73},
        }
        for seed, counts in expected.items():
            via = engines.run(
                "monte_carlo", circuit, shots=200, noise=model, seed=seed
            )
            assert via.counts == counts

    def test_memory_guard_chunks_the_shots(self, monkeypatch):
        # a guard of three shots' worth of state forces 17 chunks for
        # 50 shots; chunking only partitions the shots
        circuit = _universal_circuit()
        monkeypatch.setattr(
            NoisyBackend, "max_batch_bytes", 3 * (1 << 3) * 16
        )
        noisy = engines.run(
            "monte_carlo", circuit, shots=50,
            noise=NoiseModel.ibm_qe_2018(), seed=7,
        )
        assert sum(noisy.counts.values()) == 50
        deterministic = QuantumCircuit(3, 3)
        deterministic.x(0)
        deterministic.x(2)
        deterministic.measure_all()
        exact = engines.run("monte_carlo", deterministic, shots=50, seed=7)
        assert exact.counts == {0b101: 50}

    @pytest.mark.parametrize("option", ["backend", "batched"])
    def test_removed_options_rejected(self, option):
        with pytest.raises(engines.EngineError, match="unknown option"):
            engines.run(
                "monte_carlo", _universal_circuit(), **{option: "numpy"}
            )

    def test_none_noise_means_noiseless(self):
        # unlike raw NoisyBackend (which defaults to QE5), the engine
        # treats noise=None as the all-zero model for cross-engine
        # consistency
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        result = engines.run("monte_carlo", circuit, shots=128, seed=0)
        assert result.counts == {1: 128}

    def test_damping_rates_need_exact_engine(self):
        model = NoiseModel(amplitude_damping=0.1)
        with pytest.raises(engines.EngineError, match="density_matrix"):
            engines.run("monte_carlo", _universal_circuit(), noise=model)
