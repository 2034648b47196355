"""Golden tests: seeded count streams of the sampling engines.

Each engine owns its shot loop, so the RNG stream a seed produces is
part of its contract (reproducible experiments, cached results).  The
counts below are literals captured before the loops moved into the
engines; any change to the order or number of random draws shows up
here.  ProjectQ's ``Simulator``/``IBMBackend`` must equal a direct
``engines.run`` with the same seed.
"""

import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import QE5_NOISE, NoiseModel
from repro.engines import monte_carlo
from repro.frameworks.projectq import (
    All,
    H,
    IBMBackend,
    MainEngine,
    Measure,
    PhaseOracle,
    Simulator,
)
from repro.simulator.stabilizer import StabilizerError


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


def _mid_circuit() -> QuantumCircuit:
    """Mid-circuit measurement and reset: the per-shot suffix path."""
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.h(1)
    circuit.cx(0, 2)
    circuit.measure(0, 0)
    circuit.h(0)
    circuit.t(2)
    circuit.cx(2, 1)
    circuit.reset(1)
    circuit.h(1)
    circuit.ry(0.7, 2)
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


def _clifford_mid_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(1, 1)
    circuit.h(1)
    circuit.reset(0)
    circuit.h(0)
    circuit.sdg(0)
    circuit.cx(0, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


class TestStatevectorStream:
    @pytest.mark.parametrize(
        "seed, counts",
        [
            (0, {0: 110, 3: 6, 4: 2, 7: 138}),
            (7, {0: 119, 3: 1, 4: 3, 7: 133}),
            (12345, {0: 140, 3: 4, 4: 3, 7: 109}),
        ],
    )
    def test_terminal_fused(self, seed, counts):
        result = engines.run(
            "statevector", _universal_circuit(), shots=256, seed=seed
        )
        assert result.counts == counts
        assert result.num_clbits == 3
        assert result.shots == 256

    def test_mid_circuit(self):
        result = engines.run("statevector", _mid_circuit(), shots=64, seed=5)
        assert result.counts == {
            0: 12, 1: 5, 2: 16, 3: 2, 4: 2, 5: 11, 6: 3, 7: 13,
        }
        assert result.final_state is not None

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


class TestStabilizerStream:
    @pytest.mark.parametrize(
        "seed, counts",
        [(0, {0: 57, 3: 71}), (11, {0: 67, 3: 61}), (999, {0: 65, 3: 63})],
    )
    def test_terminal(self, seed, counts):
        result = engines.run(
            "stabilizer", _clifford_circuit(), shots=128, seed=seed
        )
        assert result.counts == counts
        assert result.num_clbits == 3
        assert result.final_state is None

    def test_mid_circuit_and_reset(self):
        result = engines.run(
            "stabilizer", _clifford_mid_circuit(), shots=64, seed=4
        )
        assert result.counts == {0: 19, 2: 11, 5: 14, 7: 20}

    def test_non_clifford_error_propagates(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0)
        circuit.measure(0, 0)
        with pytest.raises(StabilizerError, match="not Clifford"):
            engines.run("stabilizer", circuit, shots=1)

    def test_noise_rejected(self):
        with pytest.raises(engines.EngineError, match="does not support"):
            engines.run("stabilizer", _clifford_circuit(), noise="qe5")


class TestMonteCarloStream:
    @pytest.mark.parametrize(
        "seed, counts",
        [
            (0, {0: 58, 1: 14, 2: 13, 3: 10, 4: 14, 5: 3, 6: 5, 7: 83}),
            (42, {0: 59, 1: 16, 2: 14, 3: 14, 4: 12, 5: 6, 6: 6, 7: 73}),
        ],
    )
    def test_qe5(self, seed, counts):
        result = engines.run(
            "monte_carlo", _universal_circuit(), shots=200, noise=QE5_NOISE,
            seed=seed,
        )
        assert result.counts == counts

    @pytest.mark.parametrize(
        "seed, counts",
        [(0, {0: 111, 4: 1, 7: 88}), (42, {0: 94, 3: 7, 4: 2, 7: 97})],
    )
    def test_noiseless(self, seed, counts):
        result = engines.run(
            "monte_carlo", _universal_circuit(), shots=200, seed=seed
        )
        assert result.counts == counts

    def test_qe5_mid_circuit(self):
        result = engines.run(
            "monte_carlo", _mid_circuit(), shots=100, noise=QE5_NOISE, seed=9
        )
        assert result.counts == {
            0: 20, 1: 3, 2: 20, 3: 6, 4: 2, 5: 26, 6: 10, 7: 13,
        }

    def test_memory_guard_chunks_the_shots(self, monkeypatch):
        # a guard of three shots' worth of state forces 17 chunks for
        # 50 shots; the chunks draw from one stream, pinned here
        monkeypatch.setattr(monte_carlo, "MAX_BATCH_BYTES", 3 * (1 << 3) * 16)
        noisy = engines.run(
            "monte_carlo", _universal_circuit(), shots=50, noise=QE5_NOISE,
            seed=7,
        )
        assert noisy.counts == {0: 16, 1: 4, 2: 5, 3: 1, 5: 2, 6: 1, 7: 21}
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
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        result = engines.run("monte_carlo", circuit, shots=128, seed=0)
        assert result.counts == {1: 128}

    def test_damping_rates_need_exact_engine(self):
        model = NoiseModel(amplitude_damping=0.1)
        with pytest.raises(engines.EngineError, match="density_matrix"):
            engines.run("monte_carlo", _universal_circuit(), noise=model)


def _hidden_shift_program(backend) -> QuantumCircuit:
    """The Fig. 4 program (shift 0) flushed on ``backend``."""

    def f(a, b, c, d):
        return (a and b) ^ (c and d)

    eng = MainEngine(backend=backend)
    qubits = eng.allocate_qureg(4)
    All(H) | qubits
    PhaseOracle(f) | qubits
    All(H) | qubits
    PhaseOracle(f) | qubits
    All(H) | qubits
    Measure | qubits
    eng.flush()
    return eng.circuit


class TestProjectQBackends:
    @pytest.mark.parametrize("seed", [0, 2018])
    def test_ibm_backend_is_monte_carlo_under_qe5(self, seed):
        backend = IBMBackend(shots=256, seed=seed)
        circuit = _hidden_shift_program(backend)
        direct = engines.run(
            "monte_carlo", circuit, shots=256, noise=QE5_NOISE, seed=seed
        )
        assert backend.last_counts == direct.counts
        assert len(direct.counts) > 1  # the noise really was applied

    def test_simulator_is_one_statevector_shot(self):
        backend = Simulator(seed=3)
        circuit = _hidden_shift_program(backend)
        direct = engines.run("statevector", circuit, shots=1, seed=3)
        assert backend.last_counts == direct.counts
        assert (backend.final_state.data == direct.final_state.data).all()
