"""Unit tests for ESOP extraction and minimization.

The central invariant: every cover returned by any routine must XOR
back to the input function exactly.
"""

import random

import pytest

from repro.boolean.cube import esop_to_truth_table
from repro.boolean.esop import (
    best_fprm,
    exorcism,
    fprm,
    minimize_esop,
    minterm_cover,
    pprm,
)
from repro.boolean.truth_table import TruthTable


def assert_cover_correct(cubes, table):
    assert esop_to_truth_table(cubes, table.num_vars) == table


class TestPprm:
    def test_and_function(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        cubes = pprm(table)
        assert len(cubes) == 1
        assert cubes[0].mask == 0b11
        assert cubes[0].polarity == 0b11

    def test_xor_function(self):
        table = TruthTable.from_function(2, lambda a, b: a ^ b)
        cubes = pprm(table)
        assert len(cubes) == 2
        assert_cover_correct(cubes, table)

    def test_or_needs_three_cubes(self):
        table = TruthTable.from_function(2, lambda a, b: a or b)
        cubes = pprm(table)
        # a or b = a ^ b ^ ab
        assert len(cubes) == 3
        assert_cover_correct(cubes, table)

    def test_constant_one(self):
        table = TruthTable.constant(3, True)
        cubes = pprm(table)
        assert len(cubes) == 1
        assert cubes[0].num_literals() == 0

    def test_zero_function_empty_cover(self):
        assert pprm(TruthTable(3)) == []

    def test_all_cubes_positive(self):
        rng = random.Random(1)
        for _ in range(20):
            table = TruthTable(4, rng.getrandbits(16))
            for cube in pprm(table):
                assert cube.polarity == cube.mask

    @pytest.mark.parametrize("seed", range(10))
    def test_random_correctness(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        table = TruthTable(n, rng.getrandbits(1 << n))
        assert_cover_correct(pprm(table), table)


class TestFprm:
    def test_negative_polarity_nand_like(self):
        # ~a & ~b has a 1-cube FPRM at polarity 0b11
        table = TruthTable.from_function(2, lambda a, b: not a and not b)
        cubes = fprm(table, 0b11)
        assert len(cubes) == 1
        assert_cover_correct(cubes, table)

    def test_polarity_respected(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            polarity = rng.getrandbits(n)
            cubes = fprm(table, polarity)
            assert_cover_correct(cubes, table)
            for cube in cubes:
                # a variable in negative polarity never appears positive
                assert (cube.polarity & polarity) == 0

    def test_best_fprm_not_worse_than_pprm(self):
        rng = random.Random(5)
        for _ in range(10):
            table = TruthTable(4, rng.getrandbits(16))
            best, polarity = best_fprm(table)
            assert len(best) <= len(pprm(table))
            assert_cover_correct(best, table)

    def test_best_fprm_greedy_path(self):
        # past 10 variables the search is a greedy descent
        table = TruthTable.from_function(
            11, lambda *x: (not x[0] and not x[1]) ^ (x[2] and x[10])
        )
        cubes, polarity = best_fprm(table)
        assert_cover_correct(cubes, table)
        assert len(cubes) < len(pprm(table))


class TestExorcism:
    def test_cancels_duplicates(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        cubes = pprm(table) + pprm(table) + pprm(table)
        reduced = exorcism(cubes)
        assert len(reduced) == 1
        assert_cover_correct(reduced, table)

    def test_merges_distance_one(self):
        # ab ^ a~b = a
        cubes = minterm_cover(
            TruthTable.from_function(2, lambda a, b: a)
        )
        reduced = exorcism(cubes)
        assert len(reduced) == 1
        assert reduced[0].num_literals() == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_never_breaks_cover(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        table = TruthTable(n, rng.getrandbits(1 << n))
        reduced = exorcism(minterm_cover(table), rounds=6)
        assert_cover_correct(reduced, table)

    def test_improves_minterm_cover(self):
        table = TruthTable.inner_product(2)
        minterms = minterm_cover(table)
        reduced = exorcism(minterms, rounds=8)
        assert len(reduced) < len(minterms)


class TestMinimizeEsop:
    @pytest.mark.parametrize("effort", ["fast", "medium", "high"])
    def test_correct_at_all_efforts(self, effort):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            assert_cover_correct(minimize_esop(table, effort=effort), table)

    def test_paper_bent_function_two_cubes(self):
        """f = x1x2 XOR x3x4 minimizes to exactly its two AND cubes."""
        table = TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d)
        )
        cubes = minimize_esop(table)
        assert len(cubes) == 2
        assert sorted(c.num_literals() for c in cubes) == [2, 2]

    def test_zero_function(self):
        assert minimize_esop(TruthTable(4)) == []

    def test_inner_product_cube_count(self):
        """IP on 2n variables needs exactly n cubes."""
        for half in (1, 2, 3):
            table = TruthTable.inner_product(half)
            assert len(minimize_esop(table)) == half
