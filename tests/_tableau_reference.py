"""The per-gate-loop CHP tableau, kept as a reference oracle.

This is the historical ``StabilizerState`` implementation (dense uint8
bit matrices, per-row Python ``_rowsum``) exactly as it shipped before
the bit-packed rewrite.  It lives with the tests, outside the package,
and has two jobs only:

* the differential/pinning tests in
  ``tests/simulator/test_stabilizer_packed.py`` assert that the packed
  tableau reproduces this implementation's tableau evolution, measure
  outcomes and RNG stream bit for bit (``expectation_z`` and
  ``stabilizer_strings`` read either tableau);
* ``benchmarks/bench_simulator_scaling.py::test_stabilizer_reach``
  times it against the packed tableau to enforce the >= 5x speedup
  gate in-run, instead of trusting a stale committed number.

Do not use it anywhere else — it is O(n) Python per row product and
two orders of magnitude slower at bench widths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate


class ReferenceStabilizerError(RuntimeError):
    """Raised when a non-Clifford gate reaches the reference tableau."""


class ReferenceStabilizerState:
    """Dense uint8 CHP tableau (the pre-packed implementation)."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        n = num_qubits
        # rows 0..n-1: destabilizers; rows n..2n-1: stabilizers; row 2n: scratch
        self.x = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.z = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer Z_i

    def copy(self) -> "ReferenceStabilizerState":
        out = ReferenceStabilizerState(self.num_qubits)
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        return out

    # ------------------------------------------------------------------
    # Clifford generators
    # ------------------------------------------------------------------
    def apply_h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def apply_cx(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    # derived gates ------------------------------------------------------
    def apply_sdg(self, q: int) -> None:
        self.apply_s(q)
        self.apply_s(q)
        self.apply_s(q)

    def apply_x(self, q: int) -> None:
        self.apply_h(q)
        self.apply_s(q)
        self.apply_s(q)
        self.apply_h(q)

    def apply_z(self, q: int) -> None:
        self.apply_s(q)
        self.apply_s(q)

    def apply_y(self, q: int) -> None:
        self.apply_z(q)
        self.apply_x(q)

    def apply_cz(self, control: int, target: int) -> None:
        self.apply_h(target)
        self.apply_cx(control, target)
        self.apply_h(target)

    def apply_cy(self, control: int, target: int) -> None:
        self.apply_sdg(target)
        self.apply_cx(control, target)
        self.apply_s(target)

    def apply_swap(self, a: int, b: int) -> None:
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

    def apply_sx(self, q: int) -> None:
        self.apply_h(q)
        self.apply_s(q)
        self.apply_h(q)

    def apply_sxdg(self, q: int) -> None:
        self.apply_h(q)
        self.apply_sdg(q)
        self.apply_h(q)

    def apply_gate(self, gate: Gate) -> None:
        """Dispatch a Clifford gate onto the tableau."""
        name = gate.name
        if name in ("barrier", "id"):
            return
        handlers = {
            "h": lambda: self.apply_h(gate.targets[0]),
            "s": lambda: self.apply_s(gate.targets[0]),
            "sdg": lambda: self.apply_sdg(gate.targets[0]),
            "x": lambda: self.apply_x(gate.targets[0]),
            "y": lambda: self.apply_y(gate.targets[0]),
            "z": lambda: self.apply_z(gate.targets[0]),
            "sx": lambda: self.apply_sx(gate.targets[0]),
            "sxdg": lambda: self.apply_sxdg(gate.targets[0]),
            "cx": lambda: self.apply_cx(gate.controls[0], gate.targets[0]),
            "cy": lambda: self.apply_cy(gate.controls[0], gate.targets[0]),
            "cz": lambda: self.apply_cz(gate.controls[0], gate.targets[0]),
            "swap": lambda: self.apply_swap(*gate.targets),
        }
        handler = handlers.get(name)
        if handler is None:
            raise ReferenceStabilizerError(f"gate {name!r} is not Clifford")
        handler()

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _g(self, x1: int, z1: int, x2: int, z2: int) -> int:
        """Phase exponent contribution of multiplying two Paulis."""
        if x1 == 0 and z1 == 0:
            return 0
        if x1 == 1 and z1 == 1:  # Y
            return z2 - x2
        if x1 == 1 and z1 == 0:  # X
            return z2 * (2 * x2 - 1)
        return x2 * (1 - 2 * z2)  # Z

    def _rowsum(self, h: int, i: int) -> None:
        """Row h := row h * row i (Pauli group multiplication)."""
        n = self.num_qubits
        phase = 2 * int(self.r[h]) + 2 * int(self.r[i])
        for j in range(n):
            phase += self._g(
                int(self.x[i, j]),
                int(self.z[i, j]),
                int(self.x[h, j]),
                int(self.z[h, j]),
            )
        self.r[h] = (phase % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit ``q`` in the Z basis, collapsing the tableau."""
        n = self.num_qubits
        p = -1
        for i in range(n, 2 * n):
            if self.x[i, q]:
                p = i
                break
        if p >= 0:
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        scratch = 2 * n
        self.x[scratch] = 0
        self.z[scratch] = 0
        self.r[scratch] = 0
        for i in range(n):
            if self.x[i, q]:
                self._rowsum(scratch, i + n)
        return int(self.r[scratch])


def expectation_z(state, q: int) -> Optional[int]:
    """Deterministic Z_q value (0 or 1) of a tableau, or None if random.

    Works on both tableaus (``ReferenceStabilizerState`` and the packed
    ``StabilizerState``): it reads the dense ``x`` rows and measures a
    copy.
    """
    n = state.num_qubits
    for i in range(n, 2 * n):
        if state.x[i, q]:
            return None
    probe = state.copy()
    return probe.measure(q, np.random.default_rng(0))


def stabilizer_strings(state) -> List[str]:
    """Human-readable stabilizer generators of a tableau, e.g. ``+XZI``."""
    n = state.num_qubits
    x, z = state.x, state.z
    out = []
    for i in range(n, 2 * n):
        sign = "-" if state.r[i] else "+"
        paulis = []
        for j in range(n):
            xbit, zbit = x[i, j], z[i, j]
            paulis.append(
                "I" if not xbit and not zbit
                else "X" if xbit and not zbit
                else "Z" if not xbit and zbit
                else "Y"
            )
        out.append(sign + "".join(paulis))
    return out


def reference_counts(
    circuit: QuantumCircuit, shots: int, seed: Optional[int] = None
) -> Dict[int, int]:
    """Shot loop over the reference tableau; classical-register counts.

    The same loop as the ``stabilizer`` engine's ``run`` (fresh tableau
    per shot, one RNG stream for all shots).
    """
    rng = np.random.default_rng(seed)
    counts: Dict[int, int] = {}
    for _ in range(shots):
        state = ReferenceStabilizerState(circuit.num_qubits)
        creg = 0
        for gate in circuit.gates:
            if gate.is_measurement:
                bit = state.measure(gate.targets[0], rng)
                creg = (creg & ~(1 << gate.cbits[0])) | (bit << gate.cbits[0])
            elif gate.name == "reset":
                if state.measure(gate.targets[0], rng):
                    state.apply_x(gate.targets[0])
            else:
                state.apply_gate(gate)
        counts[creg] = counts.get(creg, 0) + 1
    return counts
