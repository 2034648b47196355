"""Unit tests for bit-vector permutations."""

import pytest

from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import MultiTruthTable


class TestConstruction:
    def test_identity(self):
        perm = BitPermutation.identity(3)
        assert perm.cycles() == []
        assert perm.num_bits == 3

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            BitPermutation([0, 0, 1, 2])

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            BitPermutation([0, 1, 2])

    def test_random_seeded(self):
        a = BitPermutation.random(3, seed=1)
        b = BitPermutation.random(3, seed=1)
        assert a == b

    def test_from_truth_tables(self):
        tables = MultiTruthTable.from_function(2, 2, lambda x: x ^ 3)
        perm = BitPermutation.from_truth_tables(tables)
        assert perm.image == [3, 2, 1, 0]

    def test_from_irreversible_rejected(self):
        tables = MultiTruthTable.from_function(2, 2, lambda x: 0)
        with pytest.raises(ValueError):
            BitPermutation.from_truth_tables(tables)


class TestHwb:
    def test_hwb_is_permutation(self):
        for n in (2, 3, 4, 5):
            BitPermutation.hidden_weighted_bit(n)  # constructor validates

    def test_hwb_fixes_zero_and_ones(self):
        for n in (2, 3, 4):
            perm = BitPermutation.hidden_weighted_bit(n)
            assert perm(0) == 0
            assert perm((1 << n) - 1) == (1 << n) - 1

    def test_hwb_rotation_semantics(self):
        perm = BitPermutation.hidden_weighted_bit(4)
        x = 0b0011  # weight 2 -> output bit i = input bit (i+2)%4
        expected = 0
        for i in range(4):
            if (x >> ((i + 2) % 4)) & 1:
                expected |= 1 << i
        assert perm(x) == expected


class TestAlgebra:
    def test_inverse(self):
        perm = BitPermutation.random(3, seed=5)
        inv = perm.inverse()
        for x in range(8):
            assert inv(perm(x)) == x
            assert perm(inv(x)) == x

    def test_compose(self):
        a = BitPermutation.random(3, seed=1)
        b = BitPermutation.random(3, seed=2)
        composed = a.compose(b)
        for x in range(8):
            assert composed(x) == a(b(x))

    def test_compose_width_mismatch(self):
        with pytest.raises(ValueError):
            BitPermutation.identity(2).compose(BitPermutation.identity(3))

    def test_cycles(self):
        perm = BitPermutation([1, 0, 2, 3])
        cycles = perm.cycles()
        assert cycles == [[0, 1]]

    def test_parity(self):
        assert BitPermutation([1, 0, 2, 3]).parity() == 1
        assert BitPermutation.identity(2).parity() == 0
        # 3-cycle is even
        assert BitPermutation([1, 2, 0, 3]).parity() == 0

    def test_output_tables_round_trip(self):
        perm = BitPermutation.random(3, seed=9)
        tables = MultiTruthTable.from_function(3, 3, perm)
        assert BitPermutation.from_truth_tables(tables) == perm
