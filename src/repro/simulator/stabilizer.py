"""Stabilizer (CHP tableau) state over bit-packed uint64 planes.

Implements the Aaronson–Gottesman tableau algorithm so Clifford
circuits — the dominant part of mapped hidden-shift circuits, cf. the
Bravyi–Gosset reference [72] in the paper — can be simulated in
polynomial time.  Supports H, S, CNOT (and the gates reducible to
them: X, Y, Z, S', CZ, SWAP, SX) plus projective measurement; the shot
loop over this state is the ``stabilizer`` engine
(:mod:`repro.engines.stabilizer`).

The tableau holds 2n+1 rows (n destabilizers, n stabilizers, one
scratch row), exactly as in "Improved simulation of stabilizer
circuits" (Aaronson & Gottesman, 2004).  Since PR 10 the bit matrices
are packed: each row's n X-bits (and Z-bits) live in ``ceil(n/64)``
little-endian ``uint64`` words (bit ``j`` of word ``w`` is qubit
``64*w + j``), and the phase column is a ``uint64`` 0/1 vector so gate
updates XOR into it without dtype casts.  Gate updates stay whole-row
vectorized (one strided op over all 2n+1 rows), while ``_rowsum`` —
the hot loop of measurement — multiplies entire packed rows at once
and accumulates the Pauli phase with popcount arithmetic instead of a
per-column Python loop.  The public API and the RNG stream (exactly
one ``rng.integers(0, 2)`` draw per random measurement, in tableau
order) are unchanged from the dense implementation, which survives as
``ReferenceStabilizerState`` in ``tests/_tableau_reference.py`` for
differential testing; the packed layout itself is documented in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.gates import Gate

_ONE = np.uint64(1)
_ZERO = np.uint64(0)


class StabilizerError(RuntimeError):
    """Raised when a non-Clifford gate reaches the stabilizer engine."""


class StabilizerState:
    """CHP tableau over ``num_qubits`` qubits, initialized to |0..0>.

    Internally the X/Z bit matrices are row-packed ``uint64`` arrays
    (``self.xs`` / ``self.zs``, shape ``(2n+1, ceil(n/64))``) plus the
    ``uint64`` phase column ``self.r``.  The historical dense views are
    still available read-only through the ``x`` / ``z`` properties.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        n = num_qubits
        words = (n + 63) >> 6
        self._words = words
        # rows 0..n-1: destabilizers; rows n..2n-1: stabilizers; row 2n: scratch
        self.xs = np.zeros((2 * n + 1, words), dtype=np.uint64)
        self.zs = np.zeros((2 * n + 1, words), dtype=np.uint64)
        self.r = np.zeros(2 * n + 1, dtype=np.uint64)
        for i in range(n):
            self.xs[i, i >> 6] = _ONE << np.uint64(i & 63)      # destabilizer X_i
            self.zs[n + i, i >> 6] = _ONE << np.uint64(i & 63)  # stabilizer Z_i

    def copy(self) -> "StabilizerState":
        out = StabilizerState.__new__(StabilizerState)
        out.num_qubits = self.num_qubits
        out._words = self._words
        out.xs = self.xs.copy()
        out.zs = self.zs.copy()
        out.r = self.r.copy()
        return out

    # ------------------------------------------------------------------
    # packed-layout helpers
    # ------------------------------------------------------------------
    def _col(self, planes: np.ndarray, q: int) -> np.ndarray:
        """0/1 ``uint64`` column: bit ``q`` of every row of ``planes``."""
        return (planes[:, q >> 6] >> np.uint64(q & 63)) & _ONE

    def _unpack(self, planes: np.ndarray) -> np.ndarray:
        """Expand packed rows to the dense ``(rows, n)`` uint8 layout."""
        bits = np.unpackbits(
            planes.view(np.uint8).reshape(planes.shape[0], -1),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.num_qubits]

    @property
    def x(self) -> np.ndarray:
        """Dense ``(2n+1, n)`` uint8 X bit matrix (read-only unpacking)."""
        return self._unpack(self.xs)

    @property
    def z(self) -> np.ndarray:
        """Dense ``(2n+1, n)`` uint8 Z bit matrix (read-only unpacking)."""
        return self._unpack(self.zs)

    # ------------------------------------------------------------------
    # Clifford generators
    # ------------------------------------------------------------------
    def apply_h(self, q: int) -> None:
        w, b = q >> 6, np.uint64(q & 63)
        xq = (self.xs[:, w] >> b) & _ONE
        zq = (self.zs[:, w] >> b) & _ONE
        self.r ^= xq & zq
        diff = (xq ^ zq) << b
        self.xs[:, w] ^= diff
        self.zs[:, w] ^= diff

    def apply_s(self, q: int) -> None:
        w, b = q >> 6, np.uint64(q & 63)
        xq = (self.xs[:, w] >> b) & _ONE
        self.r ^= xq & ((self.zs[:, w] >> b) & _ONE)
        self.zs[:, w] ^= xq << b

    def apply_cx(self, control: int, target: int) -> None:
        wc, bc = control >> 6, np.uint64(control & 63)
        wt, bt = target >> 6, np.uint64(target & 63)
        xc = (self.xs[:, wc] >> bc) & _ONE
        zc = (self.zs[:, wc] >> bc) & _ONE
        xt = (self.xs[:, wt] >> bt) & _ONE
        zt = (self.zs[:, wt] >> bt) & _ONE
        self.r ^= xc & zt & (xt ^ zc ^ _ONE)
        self.xs[:, wt] ^= xc << bt
        self.zs[:, wc] ^= zt << bc

    # derived gates ------------------------------------------------------
    # The phase updates below are the algebraic collapse of the legacy
    # H/S/CX compositions, so the tableau evolves bit-identically to the
    # reference implementation (asserted by the packed differential suite).
    def apply_sdg(self, q: int) -> None:
        w, b = q >> 6, np.uint64(q & 63)
        xq = (self.xs[:, w] >> b) & _ONE
        self.r ^= xq & (((self.zs[:, w] >> b) & _ONE) ^ _ONE)
        self.zs[:, w] ^= xq << b

    def apply_x(self, q: int) -> None:
        # X = H Z H; anticommutes with the Z/Y rows
        self.r ^= self._col(self.zs, q)

    def apply_z(self, q: int) -> None:
        # Z = S S; anticommutes with the X/Y rows
        self.r ^= self._col(self.xs, q)

    def apply_y(self, q: int) -> None:
        # Y = i X Z; global phase is untracked in the tableau
        self.r ^= self._col(self.xs, q) ^ self._col(self.zs, q)

    def apply_cz(self, control: int, target: int) -> None:
        # CZ = H(t) CX H(t), collapsed to its symmetric phase rule
        wc, bc = control >> 6, np.uint64(control & 63)
        wt, bt = target >> 6, np.uint64(target & 63)
        xc = (self.xs[:, wc] >> bc) & _ONE
        zc = (self.zs[:, wc] >> bc) & _ONE
        xt = (self.xs[:, wt] >> bt) & _ONE
        zt = (self.zs[:, wt] >> bt) & _ONE
        self.r ^= xc & xt & (zc ^ zt)
        self.zs[:, wt] ^= xc << bt
        self.zs[:, wc] ^= xt << bc

    def apply_cy(self, control: int, target: int) -> None:
        self.apply_sdg(target)
        self.apply_cx(control, target)
        self.apply_s(target)

    def apply_swap(self, a: int, b: int) -> None:
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

    def apply_sx(self, q: int) -> None:
        # sqrt(X) = H S H (up to phase)
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
        handler = self._DISPATCH.get(name)
        if handler is None:
            raise StabilizerError(f"gate {name!r} is not Clifford")
        handler(self, gate)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _rowsum(self, h: int, i: int) -> None:
        """Row h := row h * row i (Pauli group multiplication).

        The Aaronson–Gottesman ``g`` phase function is evaluated for all
        columns at once: the combinations contributing +1 and -1 become
        two bit masks over the packed words, and their popcounts give
        the net phase exponent.
        """
        x1, z1 = self.xs[i], self.zs[i]
        x2, z2 = self.xs[h], self.zs[h]
        # g = +1 on {X*Y, Y*Z, Z*X}; g = -1 on {X*Z, Y*X, Z*Y}
        plus = (x1 & ~z1 & x2 & z2) | (x1 & z1 & ~x2 & z2) | (~x1 & z1 & x2 & ~z2)
        minus = (x1 & ~z1 & ~x2 & z2) | (x1 & z1 & x2 & ~z2) | (~x1 & z1 & x2 & z2)
        phase = (
            2 * int(self.r[h])
            + 2 * int(self.r[i])
            + int(np.bitwise_count(plus).sum(dtype=np.int64))
            - int(np.bitwise_count(minus).sum(dtype=np.int64))
        )
        self.r[h] = (phase % 4) // 2
        self.xs[h] ^= x1
        self.zs[h] ^= z1

    def _rowsum_many(self, rows: np.ndarray, i: int) -> None:
        """Batched ``_rowsum``: every row in ``rows`` times row ``i``.

        Valid because the multiplier row ``i`` is never in ``rows``, so
        the updates are independent and can run as one vectorized sweep.
        """
        x1, z1 = self.xs[i], self.zs[i]
        x2, z2 = self.xs[rows], self.zs[rows]
        plus = (x1 & ~z1 & x2 & z2) | (x1 & z1 & ~x2 & z2) | (~x1 & z1 & x2 & ~z2)
        minus = (x1 & ~z1 & ~x2 & z2) | (x1 & z1 & x2 & ~z2) | (~x1 & z1 & x2 & z2)
        phase = (
            2 * self.r[rows].astype(np.int64)
            + 2 * int(self.r[i])
            + np.bitwise_count(plus).sum(axis=1, dtype=np.int64)
            - np.bitwise_count(minus).sum(axis=1, dtype=np.int64)
        )
        self.r[rows] = ((phase % 4) // 2).astype(np.uint64)
        self.xs[rows] ^= x1
        self.zs[rows] ^= z1

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit ``q`` in the Z basis, collapsing the tableau."""
        n = self.num_qubits
        xq = self._col(self.xs, q)
        # find a stabilizer anticommuting with Z_q
        anticommuting = np.nonzero(xq[n : 2 * n])[0]
        if anticommuting.size:
            # random outcome
            p = int(anticommuting[0]) + n
            others = np.nonzero(xq[: 2 * n])[0]
            others = others[others != p]
            if others.size:
                self._rowsum_many(others, p)
            self.xs[p - n] = self.xs[p]
            self.zs[p - n] = self.zs[p]
            self.r[p - n] = self.r[p]
            self.xs[p] = _ZERO
            self.zs[p] = _ZERO
            self.zs[p, q >> 6] = _ONE << np.uint64(q & 63)
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        # deterministic outcome: the product of the stabilizer rows
        # selected by the destabilizer X-bits.  The sequential scratch-row
        # rowsums collapse to one vectorized pass: a prefix-XOR gives the
        # partial product each row multiplies into, and because every
        # partial product is a stabilizer element (phase strictly ±1,
        # never ±i) the mod-4 reduction can be deferred to the end.
        scratch = 2 * n
        self.xs[scratch] = _ZERO
        self.zs[scratch] = _ZERO
        self.r[scratch] = _ZERO
        rows = np.nonzero(xq[:n])[0] + n
        if not rows.size:
            return 0
        x1, z1 = self.xs[rows], self.zs[rows]
        x2 = np.zeros_like(x1)
        z2 = np.zeros_like(z1)
        np.bitwise_xor.accumulate(x1[:-1], axis=0, out=x2[1:])
        np.bitwise_xor.accumulate(z1[:-1], axis=0, out=z2[1:])
        plus = (x1 & ~z1 & x2 & z2) | (x1 & z1 & ~x2 & z2) | (~x1 & z1 & x2 & ~z2)
        minus = (x1 & ~z1 & ~x2 & z2) | (x1 & z1 & x2 & ~z2) | (~x1 & z1 & x2 & z2)
        phase = (
            2 * int(self.r[rows].sum(dtype=np.int64))
            + int(np.bitwise_count(plus).sum(dtype=np.int64))
            - int(np.bitwise_count(minus).sum(dtype=np.int64))
        )
        outcome = (phase % 4) // 2
        # leave the accumulated product in the scratch row, as the
        # sequential implementation did
        self.xs[scratch] = x2[-1] ^ x1[-1]
        self.zs[scratch] = z2[-1] ^ z1[-1]
        self.r[scratch] = outcome
        return outcome


def _dispatch_table() -> Dict[str, object]:
    """Gate-name -> bound-update table shared by every state instance."""
    return {
        "h": lambda s, g: s.apply_h(g.targets[0]),
        "s": lambda s, g: s.apply_s(g.targets[0]),
        "sdg": lambda s, g: s.apply_sdg(g.targets[0]),
        "x": lambda s, g: s.apply_x(g.targets[0]),
        "y": lambda s, g: s.apply_y(g.targets[0]),
        "z": lambda s, g: s.apply_z(g.targets[0]),
        "sx": lambda s, g: s.apply_sx(g.targets[0]),
        "sxdg": lambda s, g: s.apply_sxdg(g.targets[0]),
        "cx": lambda s, g: s.apply_cx(g.controls[0], g.targets[0]),
        "cy": lambda s, g: s.apply_cy(g.controls[0], g.targets[0]),
        "cz": lambda s, g: s.apply_cz(g.controls[0], g.targets[0]),
        "swap": lambda s, g: s.apply_swap(*g.targets),
    }


StabilizerState._DISPATCH = _dispatch_table()
