"""Maiorana–McFarland bent functions and hidden-shift instances.

Sec. VI.B of the paper: ``f(x, y) = x . pi(y) ^ h(y)`` over 2n
variables, with ``pi`` a permutation of n-bit vectors and ``h`` an
arbitrary Boolean function.  The dual is
``f~(x, y) = pi^{-1}(x) . y ^ h(pi^{-1}(x))``.

Variable layout: x-variables occupy input-index bits ``0..n-1``,
y-variables bits ``n..2n-1``.  (The interleaved qubit layout of the
paper's Fig. 7 is a *circuit* choice handled by the oracle builders,
not by the function representation.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .permutation import BitPermutation
from .truth_table import TruthTable


@dataclass(frozen=True)
class MaioranaMcFarland:
    """A Maiorana–McFarland bent function f(x, y) = x.pi(y) ^ h(y)."""

    pi: BitPermutation
    h: TruthTable

    def __post_init__(self) -> None:
        if self.h.num_vars != self.pi.num_bits:
            raise ValueError("h must be over the same n variables as pi")

    @property
    def half_vars(self) -> int:
        return self.pi.num_bits

    @property
    def num_vars(self) -> int:
        return 2 * self.pi.num_bits

    # ------------------------------------------------------------------
    @classmethod
    def inner_product(cls, half_vars: int) -> "MaioranaMcFarland":
        """The IP function: pi = identity, h = 0 (self-dual)."""
        return cls(
            BitPermutation.identity(half_vars), TruthTable(half_vars)
        )

    @classmethod
    def random(
        cls, half_vars: int, seed: Optional[int] = None
    ) -> "MaioranaMcFarland":
        rng = random.Random(seed)
        pi = BitPermutation.random(half_vars, seed=rng.randrange(2**31))
        h = TruthTable(half_vars, rng.getrandbits(1 << half_vars))
        return cls(pi, h)

    # ------------------------------------------------------------------
    def evaluate(self, x: int, y: int) -> int:
        """f(x, y) = x . pi(y) ^ h(y)."""
        return (bin(x & self.pi(y)).count("1") & 1) ^ self.h(y)

    def __call__(self, xy: int) -> int:
        n = self.half_vars
        x = xy & ((1 << n) - 1)
        y = xy >> n
        return self.evaluate(x, y)

    def truth_table(self) -> TruthTable:
        table = TruthTable(self.num_vars)
        for xy in range(1 << self.num_vars):
            if self(xy):
                table.bits |= 1 << xy
        return table

    def dual(self) -> "MaioranaMcFarlandDual":
        """Structured dual f~(x, y) = pi^{-1}(x).y ^ h(pi^{-1}(x))."""
        return MaioranaMcFarlandDual(self.pi.inverse(), self.h)

    def shifted_table(self, shift: int) -> TruthTable:
        """g(x) = f(x ^ shift) — the oracle the algorithm queries."""
        return self.truth_table().shift(shift)


@dataclass(frozen=True)
class MaioranaMcFarlandDual:
    """The dual f~(x, y) = pi_inv(x) . y ^ h(pi_inv(x))."""

    pi_inv: BitPermutation
    h: TruthTable

    @property
    def half_vars(self) -> int:
        return self.pi_inv.num_bits

    @property
    def num_vars(self) -> int:
        return 2 * self.pi_inv.num_bits

    def evaluate(self, x: int, y: int) -> int:
        pre = self.pi_inv(x)
        return (bin(pre & y).count("1") & 1) ^ self.h(pre)

    def __call__(self, xy: int) -> int:
        n = self.half_vars
        x = xy & ((1 << n) - 1)
        y = xy >> n
        return self.evaluate(x, y)

    def truth_table(self) -> TruthTable:
        table = TruthTable(self.num_vars)
        for xy in range(1 << self.num_vars):
            if self(xy):
                table.bits |= 1 << xy
        return table


@dataclass(frozen=True)
class HiddenShiftInstance:
    """A full problem instance: bent f, hidden shift s, oracle g.

    ``g(x) = f(x ^ s)``; the solver gets oracle access to g and to the
    dual f~ and must recover s (Definition 1 of the paper).
    """

    function: MaioranaMcFarland
    shift: int

    def __post_init__(self) -> None:
        if not 0 <= self.shift < (1 << self.function.num_vars):
            raise ValueError("shift out of range")

    @property
    def num_vars(self) -> int:
        return self.function.num_vars

    def g_table(self) -> TruthTable:
        return self.function.shifted_table(self.shift)

    def f_table(self) -> TruthTable:
        return self.function.truth_table()

    def dual_table(self) -> TruthTable:
        """Dual from the MM structure; equals the spectral dual."""
        return self.function.dual().truth_table()

    @classmethod
    def random(
        cls, half_vars: int, seed: Optional[int] = None
    ) -> "HiddenShiftInstance":
        rng = random.Random(seed)
        function = MaioranaMcFarland.random(
            half_vars, seed=rng.randrange(2**31)
        )
        shift = rng.randrange(1 << (2 * half_vars))
        return cls(function, shift)
