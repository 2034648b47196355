"""Exact density-matrix engine with Pauli-transfer-matrix noise.

The open-system tier of the engine registry: instead of sampling noisy
trajectories (the ``monte_carlo`` engine), the state is the full
density matrix ``rho`` and every noise channel is applied exactly, so
outcome probabilities are read off the diagonal of ``rho``
without shot sampling — the paper's Fig. 6 recovery probability (~0.63
under IBM QE5 calibration rates) becomes a deterministic number.

Kernel reuse on both indices
----------------------------
``rho`` is stored as the flat length-``4^n`` row-major vector
``flat[row * 2^n + col]`` and handed to the existing bit-sliced kernels
of :mod:`repro.simulator.kernels` as if it were a statevector of
``2n`` qubits: qubit ``q``'s *column* bit is kernel qubit ``q`` and its
*row* bit is kernel qubit ``n + q``.  A unitary update
``rho -> U rho U^+`` is then two kernel passes:

* left-multiply by ``U``: the gate remapped onto the row qubits;
* right-multiply by ``U^+``: the elementwise-conjugated gate on the
  column qubits (``rho U^+ = (U* rho*)*`` and ``rho`` is only
  conjugated implicitly — acting on the column index with ``U*`` is
  exactly right-multiplication by ``U^+``).

Most named gates conjugate to another named gate (real matrices are
their own conjugate, ``s``/``t``/``sx`` swap with their daggers,
rotations negate their angle), so both passes stay on the dedicated
bit-sliced kernels; ``y``/``cy`` (whose conjugate ``-y`` is not a named
gate — the sign matters on one index) fall back to the dense kernel.
Noise channels are 4x4 superoperators (:mod:`repro.engines.ptm`)
applied to the ``(row bit, column bit)`` pair of one qubit through the
same dense kernel, and ``reset`` is amplitude damping at ``gamma = 1``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import ADJOINT_NAME, Gate
from ..simulator import kernels
from ..simulator.statevector import (
    SimulationResult,
    _measured_width,
    _measurements_terminal,
)
from .base import (
    EngineCapabilities,
    EngineError,
    reject_shots,
    reject_width,
)
from .noise import NoiseModel
from .ptm import channel_superoperator

#: hard circuit-width ceiling: rho at n qubits is 16 * 4^n bytes
#: (n=12 -> 256 MiB), so wider jobs are refused rather than swapped.
MAX_QUBITS = 12

#: base names whose matrix is real — the gate is its own conjugate.
_REAL_BASES = frozenset(
    {"id", "h", "x", "z", "swap", "ry", "mcx", "mcz"}
)

#: parametric bases whose conjugate negates the angle.
_NEGATE_PARAM_BASES = frozenset({"rx", "rz", "p"})


def _conjugate_gate(gate: Gate) -> Optional[Gate]:
    """Return the named gate equal to ``gate``'s elementwise conjugate.

    Controls are real structure, so a controlled gate conjugates by
    conjugating its base.  Returns ``None`` when no named gate matches
    (``y``'s conjugate is ``-y`` — same adjoint, opposite sign, and the
    sign is physical when only one index of ``rho`` is touched).
    """
    base = gate.base_name
    if base in _REAL_BASES:
        return gate
    if base in ADJOINT_NAME:  # s/sdg, t/tdg, sx/sxdg: diagonal or real-swap
        if gate.controls:
            return None  # no named controlled-sdg etc.; dense fallback
        return Gate(ADJOINT_NAME[gate.name], gate.targets, params=gate.params)
    if base in _NEGATE_PARAM_BASES:
        return Gate(
            gate.name,
            gate.targets,
            gate.controls,
            tuple(-p for p in gate.params),
        )
    return None


class DensityMatrix:
    """Mutable n-qubit density matrix driven by the statevector kernels.

    The matrix is stored flat (row-major, length ``4^n``) so the
    bit-sliced kernels of :mod:`repro.simulator.kernels` can treat it
    as a ``2n``-qubit state: column bits are kernel qubits ``0..n-1``,
    row bits are ``n..2n-1``.
    """

    def __init__(
        self,
        num_qubits: int,
        data: Optional[np.ndarray] = None,
    ):
        """Initialize to |0..0><0..0| or a copy of ``data``.

        Args:
            num_qubits: the register width ``n``.
            data: optional ``2^n x 2^n`` (or flat ``4^n``) initial
                matrix, copied.
        """
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        if num_qubits > MAX_QUBITS:
            raise EngineError(
                f"density matrix at {num_qubits} qubits needs "
                f"{16 * 4 ** num_qubits / 2 ** 20:.0f} MiB; the engine "
                f"caps at {MAX_QUBITS} qubits — use 'statevector' or "
                "'monte_carlo' for wider circuits"
            )
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if data is None:
            self.data = np.zeros(dim * dim, dtype=complex)
            self.data[0] = 1.0
        else:
            data = kernels._prepare(data).reshape(-1)
            if data.shape != (dim * dim,):
                raise ValueError(f"density matrix must have {dim * dim} entries")
            self.data = data

    def copy(self) -> "DensityMatrix":
        """Return an independent copy."""
        return DensityMatrix(self.num_qubits, self.data)

    def matrix(self) -> np.ndarray:
        """The density matrix as a ``2^n x 2^n`` array (a view)."""
        dim = 1 << self.num_qubits
        return self.data.reshape(dim, dim)

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate) -> None:
        """Apply ``rho -> U rho U^+`` with two kernel passes.

        Args:
            gate: the unitary gate (measure/reset are handled by the
                engine, not here).
        """
        if gate.name in ("barrier", "id"):
            return
        if not gate.is_unitary:
            raise EngineError(
                f"apply_gate cannot handle non-unitary {gate.name!r}"
            )
        n = self.num_qubits
        total = 2 * n
        # left-multiply U: the same gate on the row qubits
        row_gate = gate.remap({q: q + n for q in gate.qubits})
        if not kernels.apply_gate(self.data, row_gate, total):
            kernels.apply_matrix(
                self.data, gate.matrix(), [q + n for q in gate.qubits], total
            )
        # right-multiply U^+: the conjugated gate on the column qubits
        conj = _conjugate_gate(gate)
        if conj is None or not kernels.apply_gate(self.data, conj, total):
            kernels.apply_matrix(
                self.data, np.conj(gate.matrix()), gate.qubits, total
            )

    def apply_channel(self, kind: str, rate: float, qubit: int) -> None:
        """Apply a builtin single-qubit channel exactly.

        Args:
            kind: ``"amplitude_damping"``, ``"phase_damping"`` or
                ``"depolarizing"``.
            rate: the channel rate in [0, 1] (zero is a no-op).
            qubit: the qubit the channel hits.
        """
        if rate == 0.0:
            return
        superop = channel_superoperator(kind, rate)
        # the superoperator's local index pairs (row bit, column bit)
        kernels.apply_matrix(
            self.data,
            superop,
            [qubit + self.num_qubits, qubit],
            2 * self.num_qubits,
        )

    def reset_qubit(self, qubit: int) -> None:
        """Reset one qubit to |0> (amplitude damping at ``gamma = 1``)."""
        self.apply_channel("amplitude_damping", 1.0, qubit)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Exact basis-state probabilities: the diagonal of ``rho``."""
        probs = self.matrix().diagonal().real.copy()
        np.clip(probs, 0.0, None, out=probs)  # scrub float round-off
        total = probs.sum()
        if total > 0.0:
            probs /= total
        return probs

    def trace(self) -> float:
        """Tr(rho) — 1.0 up to float round-off for any channel chain."""
        return float(self.matrix().diagonal().real.sum())


class DensityMatrixResult(SimulationResult):
    """A simulation result whose probabilities are exact.

    ``counts`` are sampled from the exact distribution (so shot-based
    callers behave normally), but :meth:`probability` and
    :attr:`exact_probabilities` come straight off the diagonal of
    ``rho`` — no sampling error.
    """

    def __init__(
        self,
        counts: Dict[int, int],
        probabilities: np.ndarray,
        density: DensityMatrix,
        shots: int,
        num_clbits: Optional[int] = None,
    ):
        """Wrap the exact distribution next to sampled counts.

        Args:
            counts: sampled outcome histogram.
            probabilities: exact probabilities over the measured
                register.
            density: the final density matrix.
            shots: number of sampled shots.
            num_clbits: measured classical register width.
        """
        super().__init__(counts, None, shots, num_clbits)
        #: exact outcome probabilities indexed by classical register value.
        self.exact_probabilities = probabilities
        #: the final :class:`DensityMatrix`.
        self.density = density

    def probability(self, outcome: int) -> float:
        """Exact probability of ``outcome``, read off ``rho``'s diagonal.

        Args:
            outcome: the classical register value.

        Returns:
            The exact probability (0.0 outside the register range).
        """
        if 0 <= outcome < self.exact_probabilities.size:
            return float(self.exact_probabilities[outcome])
        return 0.0

    def most_frequent(self) -> int:
        """The most likely outcome of the exact distribution."""
        return int(np.argmax(self.exact_probabilities))


class DensityMatrixEngine:
    """The exact open-system builtin engine (registry: ``density_matrix``)."""

    name = "density_matrix"
    description = (
        "exact rho evolution with PTM noise channels "
        "(amplitude/phase damping, depolarizing, readout error)"
    )
    capabilities = EngineCapabilities(
        max_qubits=MAX_QUBITS, noise=True, exact=True
    )
    aliases = ("dm", "rho")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
    ) -> DensityMatrixResult:
        """Evolve ``rho`` through ``circuit`` and read exact statistics.

        Args:
            circuit: the circuit (measurements must be terminal).
            shots: number of counts to sample from the exact
                distribution (the probabilities themselves are exact).
            noise: optional :class:`NoiseModel`; each gate is followed
                by its class's depolarizing channel plus the model's
                damping channels on every touched qubit, and measured
                bits mix through the readout-assignment matrix.
            seed: RNG seed for the count sampling only.

        Returns:
            The run's :class:`DensityMatrixResult`.
        """
        reject_shots(self, shots)
        reject_width(self, circuit)
        if not _measurements_terminal(circuit):
            raise EngineError(
                "density_matrix engine requires terminal measurements; "
                "use 'statevector' or 'monte_carlo' for mid-circuit "
                "measurement"
            )
        rho = DensityMatrix(circuit.num_qubits)
        measure_map: Dict[int, int] = {}  # clbit -> qubit (last wins)
        for gate in circuit.gates:
            if gate.name == "barrier":
                continue
            if gate.is_measurement:
                measure_map[gate.cbits[0]] = gate.targets[0]
                continue
            if gate.name == "reset":
                rho.reset_qubit(gate.targets[0])
                continue
            rho.apply_gate(gate)
            if noise is not None:
                p_err = noise.gate_error(gate)
                for qubit in gate.qubits:
                    rho.apply_channel("depolarizing", p_err, qubit)
                    rho.apply_channel(
                        "amplitude_damping", noise.amplitude_damping, qubit
                    )
                    rho.apply_channel(
                        "phase_damping", noise.phase_damping, qubit
                    )

        if not circuit.has_measurements():
            return DensityMatrixResult(
                {}, rho.probabilities(), rho, shots, None
            )

        num_clbits = _measured_width(circuit)
        probs = _register_marginal(
            rho.probabilities(), measure_map, num_clbits
        )
        if noise is not None and noise.p_meas > 0.0:
            for clbit in measure_map:
                probs = _mix_readout(probs, clbit, noise.p_meas)
        counts = _sample_counts(probs, shots, seed)
        return DensityMatrixResult(counts, probs, rho, shots, num_clbits)


def _register_marginal(
    probs: np.ndarray, measure_map: Dict[int, int], num_clbits: int
) -> np.ndarray:
    """Marginalize basis-state probabilities onto the measured register.

    Args:
        probs: exact probabilities over all ``2^n`` basis states.
        measure_map: classical bit -> measured qubit.
        num_clbits: width of the classical register.

    Returns:
        Exact probabilities indexed by classical register value.
    """
    idx = np.arange(probs.size)
    keys = np.zeros(probs.size, dtype=np.int64)
    for clbit, qubit in measure_map.items():
        keys |= ((idx >> qubit) & 1) << clbit
    return np.bincount(keys, weights=probs, minlength=1 << num_clbits)


def _mix_readout(probs: np.ndarray, clbit: int, p_flip: float) -> np.ndarray:
    """Mix one classical bit through the readout-assignment matrix.

    Args:
        probs: register probabilities.
        clbit: the bit read out imperfectly.
        p_flip: its flip probability.

    Returns:
        The mixed distribution ``(1 - p) probs + p probs_flipped``.
    """
    flipped = probs[np.arange(probs.size) ^ (1 << clbit)]
    return (1.0 - p_flip) * probs + p_flip * flipped


def _sample_counts(
    probs: np.ndarray, shots: int, seed: Optional[int]
) -> Dict[int, int]:
    """Draw a multinomial count histogram from exact probabilities.

    Args:
        probs: the exact distribution.
        shots: number of samples.
        seed: RNG seed.

    Returns:
        Outcome -> count, zero-count outcomes omitted.
    """
    if shots == 0:
        return {}
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs / probs.sum())
    return {int(i): int(c) for i, c in enumerate(draws) if c}


#: The backend instance listed in :mod:`repro.engines.registry`.
ENGINE = DensityMatrixEngine()
