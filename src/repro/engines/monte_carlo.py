"""The ``monte_carlo`` builtin engine — sampled noisy trajectories.

The paper runs the 4-qubit hidden-shift circuit on the IBM QE chip
(Fig. 6): 3 runs x 1024 shots, recovering the correct shift with
average probability ~0.63.  Real hardware is not available here, so
this engine samples noisy statevector trajectories at a
:class:`NoiseModel`'s rates (:data:`~.noise.QE5_NOISE` for the paper's
chip):

* after every gate, each touched qubit suffers a depolarizing error
  (a uniformly random Pauli) with its gate class's probability;
* measured bits are flipped with the readout-error probability.

Every shot is one column of a ``(2**n, shots)`` batch, so each gate is
one batched kernel call.  The exact counterpart is the
``density_matrix`` engine, which evolves the trajectory *average* of
this sampler (same depolarizing convention), so the two agree within
sampling tolerance — asserted in
``tests/engines/test_differential_density.py``.

``noise=None`` means noiseless, as for every other engine: pass
``QE5_NOISE`` (or ``"qe5"``) for the paper's device rates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from ..simulator import kernels
from ..simulator.statevector import SimulationResult, _measured_width
from .base import (
    EngineCapabilities,
    EngineError,
    reject_opts,
    reject_shots,
    reject_width,
)
from .noise import NoiseModel, as_noise_model

#: memory guard: largest ``shots * 2**n`` complex128 batch evolved at
#: once (256 MiB); more shots run as consecutive chunks.  Read at run
#: time, so tests can monkeypatch it.
MAX_BATCH_BYTES = 1 << 28

_PAULIS = ("x", "y", "z")


class MonteCarloEngine:
    """Shot-sampled Pauli/readout noise on statevector trajectories."""

    name = "monte_carlo"
    description = (
        "per-shot statevector trajectories with sampled "
        "Pauli/readout noise (the Fig. 6 device substitute)"
    )
    capabilities = EngineCapabilities(max_qubits=20, noise=True, exact=False)
    aliases = ("mc", "noisy")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Sample ``shots`` noisy trajectories of ``circuit``.

        No gate fusion happens here — the noise model is defined per
        physical gate, so the gate sequence runs verbatim.  Shots are
        evolved in chunks of at most :data:`MAX_BATCH_BYTES` of state.
        Chunking only partitions the shots: all chunks draw from one
        RNG stream, and a run that fits one chunk consumes it exactly
        as an unchunked sweep would.

        Args:
            circuit: the circuit to execute.
            shots: trajectory count.
            noise: the :class:`NoiseModel` to sample from (``None``
                means noiseless — pass ``QE5_NOISE`` explicitly for
                the paper's device rates).  Damping rates are exact-
                tier channels and are rejected here.
            seed: RNG seed for the error/measurement sampling.
            **opts: none are accepted; any option raises.

        Returns:
            The run's :class:`SimulationResult` (counts only).
        """
        reject_shots(self, shots)
        reject_width(self, circuit)
        reject_opts(self, opts)
        model = noise if noise is not None else NoiseModel.noiseless()
        if not model.trajectory_safe:
            raise EngineError(
                "engine 'monte_carlo' samples Pauli/readout errors only; "
                "amplitude/phase damping needs the exact "
                "'density_matrix' engine"
            )
        rng = np.random.default_rng(seed)
        steps = [
            (g, 0.0 if g.is_measurement or g.name == "reset"
             else model.gate_error(g))
            for g in circuit.gates
            if g.name != "barrier"
        ]
        chunk = max(1, MAX_BATCH_BYTES // ((1 << circuit.num_qubits) * 16))
        creg = np.empty(shots, dtype=np.int64)
        for start in range(0, shots, chunk):
            stop = min(start + chunk, shots)
            creg[start:stop] = _sample(
                steps, model.p_meas, circuit.num_qubits, stop - start, rng
            )
        values, counts = np.unique(creg, return_counts=True)
        return SimulationResult(
            {int(v): int(c) for v, c in zip(values, counts)},
            None,
            shots,
            _measured_width(circuit),
        )


def run_repeated(
    circuit: QuantumCircuit,
    shots: int,
    repetitions: int,
    *,
    noise: Union[NoiseModel, str, None] = None,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Repeat a ``shots``-run ``repetitions`` times (paper: 3 x 1024).

    Repetition ``r`` runs with seed ``seed + r`` (unseeded when ``seed``
    is ``None``).

    Args:
        circuit: the circuit to execute.
        shots: trajectories per repetition.
        repetitions: number of independent runs.
        noise: as for :func:`repro.engines.run` (``None`` is noiseless).
        seed: base RNG seed.

    Returns:
        ``(mean, std)`` outcome probabilities over the repetitions, as
        arrays indexed by outcome — the error bars of Fig. 6.
    """
    model = as_noise_model(noise)
    probs = np.zeros((repetitions, 1 << _measured_width(circuit)))
    for rep in range(repetitions):
        result = ENGINE.run(
            circuit,
            shots=shots,
            noise=model,
            seed=None if seed is None else seed + rep,
        )
        for outcome, count in result.counts.items():
            probs[rep, outcome] = count / shots
    return probs.mean(axis=0), probs.std(axis=0)


def _sample(
    steps: List[Tuple[Gate, float]],
    p_meas: float,
    num_qubits: int,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Evolve one chunk of ``shots`` trajectories; return its registers.

    ``steps`` pairs each gate with its depolarizing rate.  Kernels are
    called through the :mod:`~repro.simulator.kernels` module so that
    patching its entry points reaches this loop.
    """
    state = np.zeros((1 << num_qubits, shots), dtype=complex)
    state[0, :] = 1.0
    creg = np.zeros(shots, dtype=np.int64)
    for gate, p_err in steps:
        if gate.is_measurement:
            bits = _measure_batch(state, num_qubits, gate.targets[0], rng)
            if p_meas > 0.0:
                bits ^= rng.random(shots) < p_meas
            clbit = gate.cbits[0]
            creg = (creg & ~(1 << clbit)) | (bits.astype(np.int64) << clbit)
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


def _measure_batch(
    state: np.ndarray, num_qubits: int, qubit: int, rng: np.random.Generator
) -> np.ndarray:
    """Measure ``qubit`` on every batch column, collapsing in place.

    Returns the boolean outcome per column.  Columns keep unit norm;
    degenerate branches (probability ~0) are never selected, so the
    clipped divisors below only guard against 0/0.
    """
    t = state.reshape((2,) * num_qubits + (-1,))
    tm = np.moveaxis(t, num_qubits - 1 - qubit, 0)  # view: (2, ..., shots)
    p1 = np.abs(tm[1].reshape(-1, state.shape[-1])) ** 2
    p1 = np.minimum(p1.sum(axis=0), 1.0)
    bits = rng.random(p1.shape[0]) < p1
    inv0 = np.where(bits, 0.0, 1.0 / np.sqrt(np.maximum(1.0 - p1, 1e-300)))
    inv1 = np.where(bits, 1.0 / np.sqrt(np.maximum(p1, 1e-300)), 0.0)
    tm[0] *= inv0
    tm[1] *= inv1
    return bits


def _reset_batch(
    state: np.ndarray, num_qubits: int, qubit: int, rng: np.random.Generator
) -> None:
    """Reset ``qubit`` to |0> on every batch column (measure + flip)."""
    bits = _measure_batch(state, num_qubits, qubit, rng)
    cols = np.nonzero(bits)[0]
    if cols.size:
        t = state.reshape((2,) * num_qubits + (-1,))
        tm = np.moveaxis(t, num_qubits - 1 - qubit, 0)
        tm[0][..., cols] = tm[1][..., cols]
        tm[1][..., cols] = 0.0


#: The backend instance listed in :mod:`repro.engines.registry`.
ENGINE = MonteCarloEngine()
