"""Cubes — product terms over Boolean variables.

A :class:`Cube` is a conjunction of literals, stored as two bitmasks:
``mask`` marks which variables appear, ``polarity`` their sign (bit set
= positive literal).  Cubes are the terms of ESOP expressions
(exclusive sums of products) which drive ESOP-based reversible
synthesis (Sec. V) and PhaseOracle compilation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from .truth_table import TruthTable


class Cube:
    """A product term: AND of literals over up to ``num_vars`` variables."""

    __slots__ = ("mask", "polarity")

    def __init__(self, mask: int = 0, polarity: int = 0):
        if polarity & ~mask:
            raise ValueError("polarity bit set for a variable not in mask")
        self.mask = mask
        self.polarity = polarity

    @classmethod
    def minterm(cls, num_vars: int, x: int) -> "Cube":
        """The cube selecting exactly input ``x``."""
        mask = (1 << num_vars) - 1
        return cls(mask, x & mask)

    # ------------------------------------------------------------------
    def literals(self) -> Iterator[Tuple[int, bool]]:
        mask = self.mask
        var = 0
        while mask:
            if mask & 1:
                yield var, bool((self.polarity >> var) & 1)
            mask >>= 1
            var += 1

    def num_literals(self) -> int:
        return bin(self.mask).count("1")

    def evaluate(self, x: int) -> int:
        """1 if input ``x`` satisfies all literals."""
        return int((x & self.mask) == self.polarity)

    def to_truth_table(self, num_vars: int) -> TruthTable:
        table = TruthTable(num_vars)
        for x in range(1 << num_vars):
            if self.evaluate(x):
                table.bits |= 1 << x
        return table

    def distance(self, other: "Cube") -> int:
        """Number of positions in which two cubes differ.

        A position differs if the variable appears in exactly one cube,
        or appears in both with opposite polarity.  Distance-1 pairs can
        be merged by EXOR-link operations (exorcism).
        """
        diff_mask = self.mask ^ other.mask
        shared = self.mask & other.mask
        diff_pol = (self.polarity ^ other.polarity) & shared
        return bin(diff_mask).count("1") + bin(diff_pol).count("1")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cube)
            and self.mask == other.mask
            and self.polarity == other.polarity
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.polarity))

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        parts = []
        for var, positive in self.literals():
            parts.append(f"x{var}" if positive else f"~x{var}")
        return "&".join(parts)

    def __repr__(self) -> str:
        return f"Cube({self})"


def esop_to_truth_table(cubes: Iterable[Cube], num_vars: int) -> TruthTable:
    """XOR of the cubes' characteristic functions."""
    table = TruthTable(num_vars)
    for cube in cubes:
        table = table ^ cube.to_truth_table(num_vars)
    return table
