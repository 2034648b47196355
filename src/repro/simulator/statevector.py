"""Pure-state primitives: :class:`Statevector` and :class:`SimulationResult`.

The state behind the ``statevector`` engine (:mod:`repro.engines.statevector`,
the local simulator of the paper's ProjectQ flow, Sec. VII) and the
reference oracle for every synthesis/optimization test in this
repository.  States are numpy complex vectors of length ``2**n`` with
qubit 0 as the least-significant bit of the basis-state index.

Execution model
---------------
Gates are applied by the in-place bit-sliced kernels of
:mod:`repro.simulator.kernels`: the state is viewed as a ``(2,) * n``
tensor (qubit ``q`` on axis ``n - 1 - q``) and each gate updates only
the slices it touches —

* named single-qubit gates are one 2x2 linear combination over two
  half-state views (O(2^n) flops, zero full-state copies);
* diagonal gates (Z/S/T/RZ/P and controlled forms) are elementwise
  multiplies on the |1>-control subspace only;
* X/Y/SWAP families are slice exchanges; an ``mcx`` with ``c``
  controls touches just ``2^(n-c)`` amplitudes;
* anything without a dedicated kernel (an arbitrary matrix passed to
  :meth:`Statevector.apply_matrix`) falls back to a generic in-place
  ``2^k``-slice kernel.

:meth:`Statevector.evolve` additionally runs the gate-fusion pre-pass
(:func:`repro.simulator.kernels.compile_circuit`): wire-adjacent runs
of single-qubit gates collapse into one 2x2 matrix, consecutive
diagonal gates merge into a single local diagonal, and the remaining
ops are grouped into multi-qubit blocks executed as one BLAS matmul
each, so deep Clifford+T circuits execute far fewer full-state sweeps
than they have gates.

Sampling is vectorized: measurement histograms are produced by numpy
bit-gathers over the sampled outcome array plus ``np.unique`` instead
of per-shot Python loops.  The shot loop itself (terminal and
mid-circuit measurement) lives in the ``statevector`` engine.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from . import kernels


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations."""


class Statevector:
    """Mutable n-qubit pure state."""

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if data is None:
            self.data = np.zeros(dim, dtype=complex)
            self.data[0] = 1.0
        else:
            data = kernels._prepare(data)
            if data.shape != (dim,):
                raise ValueError(f"state must have length {dim}")
            self.data = data

    @classmethod
    def from_basis_state(cls, num_qubits: int, basis: int) -> "Statevector":
        """Computational basis state |basis>."""
        if not 0 <= basis < (1 << num_qubits):
            raise ValueError("basis state out of range")
        state = cls(num_qubits)
        state.data[0] = 0.0
        state.data[basis] = 1.0
        return state

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.data)

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` matrix to the listed qubits.

        ``qubits[0]`` is the most-significant bit of the matrix's local
        index space (matching :meth:`Gate.matrix` ordering).
        """
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError("matrix does not match qubit count")
        kernels.apply_matrix(self.data, matrix, qubits, self.num_qubits)

    def apply_gate(self, gate: Gate) -> None:
        """Apply a unitary gate via its dedicated kernel when one exists."""
        if gate.name == "barrier" or gate.name == "id":
            return
        if not gate.is_unitary:
            raise SimulationError(
                f"apply_gate cannot handle non-unitary {gate.name!r}"
            )
        if not kernels.apply_gate(self.data, gate, self.num_qubits):
            self.apply_matrix(gate.matrix(), gate.qubits)

    def evolve(self, circuit: QuantumCircuit, fuse: bool = True) -> "Statevector":
        """Apply all unitary gates of ``circuit`` in place; returns self.

        With ``fuse=True`` (the default) the circuit first runs through
        the kernel layer's gate-fusion pre-pass.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width does not match state")
        for gate in circuit.gates:
            if gate.is_measurement or gate.name == "reset":
                raise SimulationError(
                    "evolve() only handles unitary circuits; use "
                    "engines.run('statevector', ...) for measurements"
                )
        _evolve_gates(self, circuit.gates, fuse)
        return self

    # ------------------------------------------------------------------
    # inspection / measurement
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        return np.abs(self.data) ** 2

    def probability_of(self, basis: int) -> float:
        return float(abs(self.data[basis]) ** 2)

    def amplitude(self, basis: int) -> complex:
        return complex(self.data[basis])

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def measure_qubit(
        self, qubit: int, rng: np.random.Generator
    ) -> int:
        """Projectively measure one qubit, collapsing the state."""
        view = self.data.reshape(-1, 2, 1 << qubit)
        p_one = float(np.sum(np.abs(view[:, 1, :]) ** 2))
        outcome = 1 if rng.random() < p_one else 0
        prob = p_one if outcome else 1.0 - p_one
        if prob <= 0.0:
            raise SimulationError("measurement of zero-probability branch")
        view[:, 1 - outcome, :] = 0.0
        self.data *= 1.0 / math.sqrt(prob)
        return outcome

    def reset_qubit(self, qubit: int, rng: np.random.Generator) -> None:
        """Measure and, if 1, flip back to |0>."""
        if self.measure_qubit(qubit, rng) == 1:
            kernels.apply_pauli(self.data, "x", qubit, self.num_qubits)

    def __str__(self) -> str:
        terms = []
        for basis, amp in enumerate(self.data):
            if abs(amp) > 1e-9:
                label = format(basis, f"0{self.num_qubits}b")
                terms.append(f"({amp:.4g})|{label}>")
        return " + ".join(terms) if terms else "0"


def _bit_gather_counts(
    outcomes: np.ndarray, bit_map: Sequence[Tuple[int, int]]
) -> Dict[int, int]:
    """Histogram of remapped outcome bits, fully vectorized.

    ``bit_map`` lists (destination_bit, source_qubit) pairs: bit
    ``source_qubit`` of each sampled outcome lands at ``destination_bit``
    of the histogram key.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    keys = np.zeros(outcomes.shape, dtype=np.int64)
    for dest, src in bit_map:
        keys |= ((outcomes >> src) & 1) << dest
    values, counts = np.unique(keys, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _evolve_gates(
    state: Statevector, gates: Sequence[Gate], fusion: bool = True
) -> None:
    """Apply a unitary gate list in place (fused when enabled)."""
    ops = kernels.compile_circuit(gates, fuse=fusion)
    kernels.apply_ops(state.data, ops, state.num_qubits)


def _measured_width(circuit: QuantumCircuit) -> int:
    """Histogram bit-width of a circuit's measured classical register.

    The declared classical register width wins (a 3-clbit circuit
    formats 3-character bitstrings even if only clbit 0 is measured);
    circuits that never declared clbits fall back to the highest
    measured bit.
    """
    if circuit.num_clbits:
        return circuit.num_clbits
    bits = [g.cbits[0] for g in circuit.gates if g.is_measurement]
    return (max(bits) + 1) if bits else 1


def _measurements_terminal(circuit: QuantumCircuit) -> bool:
    """True if no unitary gate follows a measurement on any qubit."""
    measured = set()
    for gate in circuit.gates:
        if gate.is_measurement:
            measured.add(gate.targets[0])
        elif gate.name == "barrier":
            continue
        else:
            if any(q in measured for q in gate.qubits):
                return False
    return True


class SimulationResult:
    """Counts + final state from a simulator run."""

    def __init__(
        self,
        counts: Dict[int, int],
        statevector: Optional[Statevector],
        shots: int,
        num_clbits: Optional[int] = None,
    ):
        self.counts = counts
        self.final_state = statevector
        self.shots = shots
        #: width (in bits) of the measured classical register, when the
        #: producing backend knows it; used for bitstring formatting.
        self.num_clbits = num_clbits

    def counts_by_bitstring(self, width: Optional[int] = None) -> Dict[str, int]:
        """Counts keyed by bitstrings (most-significant bit first).

        The width is, in order of preference: the explicit ``width``
        argument, the measured classical register width recorded by the
        backend, or the widest observed outcome / final-state width.
        """
        if width is None:
            width = self.num_clbits
        if width is None:
            width = max(
                (key.bit_length() for key in self.counts), default=1
            )
            if self.final_state is not None:
                width = max(width, self.final_state.num_qubits)
        return {
            format(key, f"0{width}b"): value
            for key, value in sorted(self.counts.items())
        }

    def most_frequent(self) -> int:
        if not self.counts:
            raise SimulationError("no measurement results recorded")
        return max(self.counts, key=lambda k: self.counts[k])

    def probability(self, outcome: int) -> float:
        return self.counts.get(outcome, 0) / self.shots
