"""Permutations over Boolean bit-vectors.

A :class:`BitPermutation` is a bijection on ``{0, ..., 2^n - 1}`` — the
specification consumed by ``PermutationOracle`` and by the reversible
synthesis algorithms of Sec. V (a reversible function *is* such a
permutation).  The running example of the paper uses
``pi = [0, 2, 3, 5, 7, 1, 4, 6]`` on 3 bits.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .truth_table import MultiTruthTable


class BitPermutation:
    """Bijection on n-bit values, stored as the image list."""

    def __init__(self, image: Sequence[int]):
        image = list(image)
        size = len(image)
        num_bits = size.bit_length() - 1
        if 1 << num_bits != size:
            raise ValueError("permutation length must be a power of two")
        if sorted(image) != list(range(size)):
            raise ValueError("not a permutation of 0..2^n-1")
        self.image = image
        self.num_bits = num_bits

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_bits: int) -> "BitPermutation":
        return cls(list(range(1 << num_bits)))

    @classmethod
    def random(cls, num_bits: int, seed: Optional[int] = None) -> "BitPermutation":
        rng = random.Random(seed)
        image = list(range(1 << num_bits))
        rng.shuffle(image)
        return cls(image)

    @classmethod
    def from_truth_tables(cls, tables: MultiTruthTable) -> "BitPermutation":
        if not tables.is_reversible():
            raise ValueError("multi-output function is not reversible")
        return cls(tables.image())

    @classmethod
    def hidden_weighted_bit(cls, num_bits: int) -> "BitPermutation":
        """The hwb function of the Eq. (5) pipeline.

        hwb(x) rotates the bits of x by its Hamming weight:
        output bit i = input bit (i + weight(x)) mod n.  This is the
        standard reversible benchmark function (``revgen --hwb``).
        """
        n = num_bits
        image = []
        for x in range(1 << n):
            weight = bin(x).count("1")
            y = 0
            for i in range(n):
                if (x >> ((i + weight) % n)) & 1:
                    y |= 1 << i
            image.append(y)
        return cls(image)

    # ------------------------------------------------------------------
    def __call__(self, x: int) -> int:
        return self.image[x]

    def __len__(self) -> int:
        return len(self.image)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitPermutation) and self.image == other.image
        )

    def __hash__(self) -> int:
        return hash(tuple(self.image))

    def inverse(self) -> "BitPermutation":
        inv = [0] * len(self.image)
        for x, y in enumerate(self.image):
            inv[y] = x
        return BitPermutation(inv)

    def compose(self, other: "BitPermutation") -> "BitPermutation":
        """(self . other)(x) = self(other(x))."""
        if self.num_bits != other.num_bits:
            raise ValueError("permutation width mismatch")
        return BitPermutation([self(other(x)) for x in range(len(self.image))])

    def cycles(self) -> List[List[int]]:
        """Disjoint cycles (length > 1 only)."""
        seen = set()
        out: List[List[int]] = []
        for start in range(len(self.image)):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            current = self(start)
            while current != start:
                cycle.append(current)
                seen.add(current)
                current = self(current)
            out.append(cycle)
        return out

    def __repr__(self) -> str:
        return f"BitPermutation({self.image})"
