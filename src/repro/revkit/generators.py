"""Benchmark function generators — the ``revgen`` command.

Provides the reversible benchmark functions the RevKit flow is
demonstrated on, most importantly the hidden-weighted-bit function of
the paper's Eq. (5) pipeline (``revgen --hwb 4``), plus generators used
by the benches (random permutations, modular adders, bit rotations).
"""

from __future__ import annotations

from typing import Optional

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable


def hwb(num_bits: int) -> BitPermutation:
    """Hidden-weighted-bit function (cyclic shift by Hamming weight)."""
    return BitPermutation.hidden_weighted_bit(num_bits)


def random_permutation(num_bits: int, seed: Optional[int] = None) -> BitPermutation:
    return BitPermutation.random(num_bits, seed=seed)


def modular_adder(num_bits: int, constant: int) -> BitPermutation:
    """x -> x + c (mod 2^n), the constant-adder of Shor-style arithmetic."""
    size = 1 << num_bits
    return BitPermutation([(x + constant) % size for x in range(size)])


def bit_rotation(num_bits: int, amount: int = 1) -> BitPermutation:
    """Cyclic bit rotation by ``amount`` positions."""
    size = 1 << num_bits
    amount %= num_bits

    def rot(x: int) -> int:
        return ((x << amount) | (x >> (num_bits - amount))) & (size - 1)

    return BitPermutation([rot(x) for x in range(size)])


def gray_code(num_bits: int) -> BitPermutation:
    """x -> x XOR (x >> 1), the binary-reflected Gray code."""
    return BitPermutation([x ^ (x >> 1) for x in range(1 << num_bits)])


def inner_product_bent(half_vars: int) -> TruthTable:
    """The IP bent function on 2*half_vars variables (self-dual)."""
    return TruthTable.inner_product(half_vars)


def random_function(num_vars: int, seed: Optional[int] = None) -> TruthTable:
    import random as _random

    rng = _random.Random(seed)
    return TruthTable(num_vars, rng.getrandbits(1 << num_vars))
