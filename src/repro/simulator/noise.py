"""Noisy shot-based backend — the Monte-Carlo trajectory sampler.

The paper runs the 4-qubit hidden-shift circuit on the IBM QE chip
(Fig. 6): 3 runs x 1024 shots, recovering the correct shift with
average probability ~0.63.  Real hardware is not available here, so
this module samples noisy statevector trajectories:

* after every gate, each touched qubit suffers a depolarizing error
  (random Pauli) with a per-gate-class probability;
* measurement results are flipped with a readout-error probability.

The error rates come from the shared
:class:`~repro.engines.noise.NoiseModel` (one home for the 2017/2018
IBM QE5 calibration numbers — 1q ~1.5e-3, 2q ~3.5e-2, readout ~4e-2).
Those rates reproduce the *shape* of Fig. 6: the correct outcome
dominates at well under 1.0 probability, with a broad error floor over
the other basis states.  The exact counterpart is the
``density_matrix`` engine (:mod:`repro.engines.density_matrix`), which
evolves the trajectory average of this sampler as a full density
matrix — same depolarizing convention, no sampling error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from ..engines.noise import NoiseModel
from . import kernels
from .statevector import SimulationResult, _measured_width

_PAULIS = ("x", "y", "z")


class NoisyBackend:
    """Monte-Carlo statevector sampler with Pauli/readout noise.

    Shots evolve together as the columns of one ``(2**n, shots)``
    array: after every unitary gate each touched qubit of each shot is
    hit by a uniformly random Pauli with the model's per-class
    probability, and measured bits are flipped with ``p_meas``.  The
    RNG is seeded for reproducible experiments.
    """

    #: memory guard: largest ``shots * 2**n`` complex128 batch evolved
    #: at once (256 MiB); more shots run as consecutive chunks.
    max_batch_bytes = 1 << 28

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
    ):
        self.noise_model = noise_model or NoiseModel.ibm_qe_2018()
        self._seed = seed

    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> SimulationResult:
        """Execute ``circuit`` with noise for ``shots`` repetitions.

        Every gate is one batched kernel call over the shot columns;
        sampled Pauli errors are scattered onto only the affected
        columns, and measurements collapse all columns at once.  No
        gate fusion happens here — the noise model is defined per
        physical gate, so the gate sequence runs verbatim.

        Shots are evolved in chunks of at most :attr:`max_batch_bytes`
        of state.  Chunking only partitions the shots: all chunks draw
        from one RNG stream, and a run that fits one chunk consumes it
        exactly as an unchunked sweep would.
        """
        rng = np.random.default_rng(self._seed)
        model = self.noise_model
        gates = [g for g in circuit.gates if g.name != "barrier"]
        error_rates = [
            0.0 if g.is_measurement or g.name == "reset" else model.gate_error(g)
            for g in gates
        ]
        shot_bytes = (1 << circuit.num_qubits) * 16
        chunk = max(1, self.max_batch_bytes // shot_bytes)
        creg = np.empty(shots, dtype=np.int64)
        for start in range(0, shots, chunk):
            stop = min(start + chunk, shots)
            creg[start:stop] = self._sample(
                gates, error_rates, circuit.num_qubits, stop - start, rng
            )
        counts: Dict[int, int] = {}
        for value, count in zip(*np.unique(creg, return_counts=True)):
            counts[int(value)] = int(count)
        return SimulationResult(counts, None, shots, _measured_width(circuit))

    def _sample(
        self,
        gates: List[Gate],
        error_rates: List[float],
        num_qubits: int,
        shots: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Evolve one chunk of ``shots`` trajectories; return its registers."""
        p_meas = self.noise_model.p_meas
        state = np.zeros((1 << num_qubits, shots), dtype=complex)
        state[0, :] = 1.0
        creg = np.zeros(shots, dtype=np.int64)
        for gate, p_err in zip(gates, error_rates):
            if gate.is_measurement:
                bits = _measure_batch(state, num_qubits, gate.targets[0], rng)
                if p_meas > 0.0:
                    bits ^= rng.random(shots) < p_meas
                clbit = gate.cbits[0]
                creg = (creg & ~(1 << clbit)) | (
                    bits.astype(np.int64) << clbit
                )
                continue
            if gate.name == "reset":
                _reset_batch(state, num_qubits, gate.targets[0], rng)
                continue
            if not kernels.apply_gate(state, gate, num_qubits):
                kernels.apply_matrix(state, gate.matrix(), gate.qubits, num_qubits)
            if p_err > 0.0:
                for qubit in gate.qubits:
                    hit = rng.random(shots) < p_err
                    if not hit.any():
                        continue
                    choice = rng.integers(0, 3, shots)
                    for pidx, pauli in enumerate(_PAULIS):
                        cols = np.nonzero(hit & (choice == pidx))[0]
                        if cols.size == 0:
                            continue
                        sub = np.ascontiguousarray(state[:, cols])
                        kernels.apply_pauli(sub, pauli, qubit, num_qubits)
                        state[:, cols] = sub
        return creg

    def run_repeated(
        self, circuit: QuantumCircuit, shots: int, repetitions: int
    ):
        """Repeat a shots-run ``repetitions`` times (paper: 3 x 1024).

        Returns (mean probabilities, std deviations) as arrays indexed
        by outcome, mirroring the error bars of Fig. 6.
        """
        dim = 1 << _measured_width(circuit)
        probs = np.zeros((repetitions, dim))
        for rep in range(repetitions):
            # derive a distinct child seed per repetition
            backend = NoisyBackend(
                self.noise_model,
                None if self._seed is None else self._seed + rep,
            )
            result = backend.run(circuit, shots)
            for outcome, count in result.counts.items():
                probs[rep, outcome] = count / shots
        return probs.mean(axis=0), probs.std(axis=0)


def _measure_batch(
    state: np.ndarray, num_qubits: int, qubit: int, rng
) -> np.ndarray:
    """Measure ``qubit`` on every batch column, collapsing in place.

    Returns the boolean outcome per column.  Columns keep unit norm;
    degenerate branches (probability ~0) are never selected, so the
    clipped divisors below only guard against 0/0.
    """
    t = state.reshape((2,) * num_qubits + (-1,))
    axis = num_qubits - 1 - qubit
    tm = np.moveaxis(t, axis, 0)  # view: (2, ..., shots)
    p1 = np.abs(tm[1].reshape(-1, state.shape[-1])) ** 2
    p1 = np.minimum(p1.sum(axis=0), 1.0)
    bits = rng.random(p1.shape[0]) < p1
    inv0 = np.where(bits, 0.0, 1.0 / np.sqrt(np.maximum(1.0 - p1, 1e-300)))
    inv1 = np.where(bits, 1.0 / np.sqrt(np.maximum(p1, 1e-300)), 0.0)
    tm[0] *= inv0
    tm[1] *= inv1
    return bits


def _reset_batch(
    state: np.ndarray, num_qubits: int, qubit: int, rng
) -> None:
    """Reset ``qubit`` to |0> on every batch column (measure + flip)."""
    bits = _measure_batch(state, num_qubits, qubit, rng)
    cols = np.nonzero(bits)[0]
    if cols.size:
        t = state.reshape((2,) * num_qubits + (-1,))
        tm = np.moveaxis(t, num_qubits - 1 - qubit, 0)
        tm[0][..., cols] = tm[1][..., cols]
        tm[1][..., cols] = 0.0
