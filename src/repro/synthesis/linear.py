"""Linear reversible (CNOT-only) circuit synthesis.

CNOT circuits compute invertible linear maps over GF(2) — the linear
layer inside every phase-polynomial region that T-par manipulates
[69].  This module provides:

* :class:`Gf2Matrix` — dense boolean matrices with rank/inverse/solve;
* :func:`gaussian_synthesis` — textbook Gaussian elimination
  (O(n^2) CNOTs);
* :func:`pmh_synthesis` — the Patel–Markov–Hayes partitioned
  elimination, asymptotically O(n^2 / log n) CNOTs and in practice
  smaller circuits for wider registers;
* :func:`cnot_circuit_to_matrix` — the inverse direction, used for
  verification and by the phase-region machinery.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core.circuit import QuantumCircuit


class Gf2Matrix:
    """Square boolean matrix; row ``i`` stored as an int bitmask."""

    def __init__(self, rows: Sequence[int], size: int):
        self.size = size
        mask = (1 << size) - 1
        self.rows = [row & mask for row in rows]
        if len(self.rows) != size:
            raise ValueError("need exactly `size` rows")

    # constructors -------------------------------------------------------
    @classmethod
    def identity(cls, size: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(size)], size)

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[int]]) -> "Gf2Matrix":
        size = len(data)
        rows = []
        for row in data:
            value = 0
            for j, bit in enumerate(row):
                if bit:
                    value |= 1 << j
            rows.append(value)
        return cls(rows, size)

    @classmethod
    def random_invertible(
        cls, size: int, seed: Optional[int] = None
    ) -> "Gf2Matrix":
        rng = random.Random(seed)
        while True:
            matrix = cls([rng.getrandbits(size) for _ in range(size)], size)
            if matrix.rank() == size:
                return matrix

    # queries ------------------------------------------------------------
    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def copy(self) -> "Gf2Matrix":
        return Gf2Matrix(list(self.rows), self.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    def is_identity(self) -> bool:
        return self.rows == [1 << i for i in range(self.size)]

    def rank(self) -> int:
        rows = list(self.rows)
        rank = 0
        for col in range(self.size):
            pivot = next(
                (
                    i
                    for i in range(rank, self.size)
                    if (rows[i] >> col) & 1
                ),
                None,
            )
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(self.size):
                if i != rank and (rows[i] >> col) & 1:
                    rows[i] ^= rows[rank]
            rank += 1
        return rank

    def apply(self, x: int) -> int:
        """y = M x with x, y as bit vectors (bit j = component j)."""
        y = 0
        for i, row in enumerate(self.rows):
            if bin(row & x).count("1") & 1:
                y |= 1 << i
        return y

    def multiply(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """self @ other."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        out_rows = []
        for i in range(self.size):
            acc = 0
            for j in range(self.size):
                if self.entry(i, j):
                    acc ^= other.rows[j]
            out_rows.append(acc)
        return Gf2Matrix(out_rows, self.size)

    def inverse(self) -> "Gf2Matrix":
        size = self.size
        rows = list(self.rows)
        aug = [1 << i for i in range(size)]
        rank = 0
        for col in range(size):
            pivot = next(
                (i for i in range(rank, size) if (rows[i] >> col) & 1), None
            )
            if pivot is None:
                raise ValueError("matrix is singular")
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
            for i in range(size):
                if i != rank and (rows[i] >> col) & 1:
                    rows[i] ^= rows[rank]
                    aug[i] ^= aug[rank]
            rank += 1
        return Gf2Matrix(aug, size)


def gaussian_synthesis(matrix: Gf2Matrix) -> QuantumCircuit:
    """CNOT circuit for an invertible matrix by Gaussian elimination.

    Eliminates the matrix to the identity with row operations; each
    operation ``row_t ^= row_s`` is emitted as ``CNOT(s, t)``.  The
    collected operations, applied in reverse, rebuild the matrix — so
    the emitted order realizes it directly (CNOT is self-inverse and
    ``(AB)^-1 = B^-1 A^-1``).
    """
    work = matrix.copy()
    size = matrix.size
    operations: List[Tuple[int, int]] = []

    def add_row(source: int, target: int) -> None:
        work.rows[target] ^= work.rows[source]
        operations.append((source, target))

    for col in range(size):
        if not work.entry(col, col):
            pivot = next(
                (
                    i
                    for i in range(col + 1, size)
                    if work.entry(i, col)
                ),
                None,
            )
            if pivot is None:
                raise ValueError("matrix is singular")
            add_row(pivot, col)
        for i in range(size):
            if i != col and work.entry(i, col):
                add_row(col, i)
    assert work.is_identity()

    circuit = QuantumCircuit(size, name="linear")
    for source, target in reversed(operations):
        circuit.cx(source, target)
    return circuit


def pmh_synthesis(matrix: Gf2Matrix, section_size: Optional[int] = None) -> QuantumCircuit:
    """Patel–Markov–Hayes synthesis (partitioned Gaussian elimination).

    Columns are processed in sections of ``m ~ log2(n)`` bits;
    duplicate sub-rows within a section are eliminated first, which is
    what saves the log factor.
    """
    size = matrix.size
    if section_size is None:
        # the PMH-optimal section width is ~log2(n)
        section_size = max(1, min(size, size.bit_length() - 1 or 1))
    work = matrix.copy()
    operations: List[Tuple[int, int]] = []

    def add_row(source: int, target: int) -> None:
        work.rows[target] ^= work.rows[source]
        operations.append((source, target))

    def lower_triangular_pass() -> None:
        for section_start in range(0, size, section_size):
            section_end = min(section_start + section_size, size)
            section_mask = 0
            for col in range(section_start, section_end):
                section_mask |= 1 << col
            # step A: merge rows with identical section patterns
            seen = {}
            for row in range(section_start, size):
                pattern = work.rows[row] & section_mask
                if not pattern:
                    continue
                if pattern in seen:
                    add_row(seen[pattern], row)
                else:
                    seen[pattern] = row
            # step B: ordinary elimination inside the section
            for col in range(section_start, section_end):
                if not work.entry(col, col):
                    pivot = next(
                        (
                            i
                            for i in range(col + 1, size)
                            if work.entry(i, col)
                        ),
                        None,
                    )
                    if pivot is None:
                        raise ValueError("matrix is singular")
                    add_row(pivot, col)
                for row in range(col + 1, size):
                    if work.entry(row, col):
                        add_row(col, row)

    def transpose_in_place() -> None:
        transposed = [0] * size
        for i in range(size):
            for j in range(size):
                if work.entry(i, j):
                    transposed[j] |= 1 << i
        work.rows = transposed

    # eliminate to lower-triangular, transpose, eliminate again
    lower_triangular_pass()
    transpose_in_place()
    split = len(operations)
    lower_triangular_pass()
    assert work.is_identity()

    circuit = QuantumCircuit(size, name="linear-pmh")
    # operations after the transpose act on the transposed matrix:
    # row_t ^= row_s there is column ops here = CNOT(t, s), and their
    # order is NOT reversed (see Patel-Markov-Hayes, Sec. III)
    for source, target in operations[split:]:
        circuit.cx(target, source)
    for source, target in reversed(operations[:split]):
        circuit.cx(source, target)
    return circuit


def cnot_circuit_to_matrix(circuit: QuantumCircuit) -> Gf2Matrix:
    """The GF(2) matrix computed by a CNOT-only circuit.

    Convention: state bits transform as ``x_target ^= x_control``;
    the returned matrix M satisfies ``output = M . input``.
    """
    matrix = Gf2Matrix.identity(circuit.num_qubits)
    for gate in circuit.gates:
        if gate.name == "barrier":
            continue
        if gate.name == "swap":
            a, b = gate.targets
            matrix.rows[a], matrix.rows[b] = matrix.rows[b], matrix.rows[a]
            continue
        if gate.name != "cx":
            raise ValueError(f"not a CNOT circuit (found {gate.name!r})")
        control, target = gate.controls[0], gate.targets[0]
        matrix.rows[target] ^= matrix.rows[control]
    return matrix
