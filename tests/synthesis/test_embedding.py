"""Unit tests for Bennett and explicit embeddings."""

import random

import pytest

from _helpers import verify_embedding

from repro.boolean.truth_table import MultiTruthTable, TruthTable
from repro.synthesis.embedding import (
    bennett_embedding,
    explicit_embedding,
    minimum_garbage_bits,
)


class TestBennettEmbedding:
    def test_structure(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        g = bennett_embedding(table)
        assert g.num_bits == 3
        assert verify_embedding(g, table, in_place=False)

    def test_self_inverse(self):
        """g(x, y) = (x, y ^ f(x)) is an involution."""
        table = TruthTable.from_function(3, lambda a, b, c: a ^ (b and c))
        g = bennett_embedding(table)
        assert g.compose(g).cycles() == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_multi_output(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        tables = MultiTruthTable(
            [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(m)]
        )
        g = bennett_embedding(tables)
        assert g.num_bits == n + m
        assert verify_embedding(g, tables, in_place=False)


class TestMinimumGarbage:
    def test_injective_needs_none(self):
        tables = MultiTruthTable.from_function(2, 2, lambda x: x ^ 3)
        assert minimum_garbage_bits(tables) == 0

    def test_constant_needs_n(self):
        table = TruthTable.constant(3, False)
        assert minimum_garbage_bits(table) == 3

    def test_and_function(self):
        # AND: output 0 has multiplicity 3 -> ceil(log2 3) = 2
        table = TruthTable.from_function(2, lambda a, b: a and b)
        assert minimum_garbage_bits(table) == 2


class TestExplicitEmbedding:
    def test_in_place_property(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        g, r = explicit_embedding(table)
        assert verify_embedding(g, table, in_place=True)

    def test_line_count_is_information_theoretic_minimum(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        g, r = explicit_embedding(table)
        assert r == max(2, 1 + minimum_garbage_bits(table))

    def test_reversible_input_needs_no_extra_lines(self):
        tables = MultiTruthTable.from_function(3, 3, lambda x: (x + 3) % 8)
        g, r = explicit_embedding(tables)
        assert r == 3
        assert verify_embedding(g, tables, in_place=True)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_functions(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        tables = MultiTruthTable(
            [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(m)]
        )
        g, r = explicit_embedding(tables)
        assert r >= max(n, m)
        assert verify_embedding(g, tables, in_place=True)

    def test_reciprocal_style_function(self):
        """The paper's in-place example shape: x -> output bits of a
        nonlinear function with bounded multiplicity."""
        table = MultiTruthTable.from_function(
            4, 4, lambda x: (7 * x + 3) % 16
        )
        g, r = explicit_embedding(table)
        assert r == 4  # affine bijection: no garbage at all
        assert verify_embedding(g, table, in_place=True)
