"""Unit tests for truth tables."""

import pytest

from repro.boolean.truth_table import MultiTruthTable, TruthTable


class TestConstruction:
    def test_from_function(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        assert table.values() == [0, 0, 0, 1]

    def test_from_values(self):
        table = TruthTable.from_values([0, 1, 1, 0])
        assert table(1) == 1
        assert table(3) == 0

    def test_from_values_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_hex_round_trip(self):
        table = TruthTable.from_function(4, lambda a, b, c, d: (a and b) ^ (c and d))
        assert TruthTable.from_hex(4, table.to_hex()) == table

    def test_constant(self):
        assert TruthTable.constant(3, True).count_ones() == 8
        assert TruthTable.constant(3, False).count_ones() == 0

    def test_projection(self):
        table = TruthTable.projection(3, 1)
        for x in range(8):
            assert table(x) == (x >> 1) & 1

    def test_inner_product(self):
        table = TruthTable.inner_product(2)
        # f(x, y) = x.y with x = bits 0..1, y = bits 2..3
        assert table(0b0101) == 1  # x=01, y=01
        assert table(0b0110) == 0  # x=10, y=01
        assert table(0b1111) == 0  # x=11, y=11 -> 1^1 = 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            TruthTable(25)


class TestQueries:
    def test_evaluate_assignment(self):
        table = TruthTable.from_function(3, lambda a, b, c: a and not b and c)
        assert table.evaluate([1, 0, 1]) == 1
        assert table.evaluate([1, 1, 1]) == 0


class TestAlgebra:
    def test_xor_and_or_not(self):
        a = TruthTable.projection(2, 0)
        b = TruthTable.projection(2, 1)
        assert (a ^ b).values() == [0, 1, 1, 0]
        assert (a & b).values() == [0, 0, 0, 1]
        assert (a | b).values() == [0, 1, 1, 1]
        assert (~a).values() == [1, 0, 1, 0]

    def test_incompatible_sizes(self):
        with pytest.raises(ValueError):
            TruthTable(2) ^ TruthTable(3)

    def test_shift(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        shifted = table.shift(0b01)
        for x in range(4):
            assert shifted(x) == table(x ^ 1)

    def test_shift_involution(self):
        table = TruthTable(4, 0xBEEF)
        assert table.shift(5).shift(5) == table

    def test_permute_vars(self):
        table = TruthTable.projection(3, 0)
        swapped = table.permute_vars([2, 1, 0])
        assert swapped == TruthTable.projection(3, 2)

    def test_permute_vars_invalid(self):
        with pytest.raises(ValueError):
            TruthTable(2).permute_vars([0, 0])

    def test_extend(self):
        table = TruthTable.from_function(2, lambda a, b: a ^ b)
        wide = table.extend(4)
        for x in range(16):
            assert wide(x) == table(x & 3)

    def test_extend_cannot_shrink(self):
        with pytest.raises(ValueError):
            TruthTable(3).extend(2)

    def test_hashable(self):
        a = TruthTable(2, 0b0110)
        b = TruthTable(2, 0b0110)
        assert len({a, b}) == 1


class TestMultiTruthTable:
    def test_from_function(self):
        tables = MultiTruthTable.from_function(2, 2, lambda x: (x + 1) % 4)
        assert tables(0) == 1
        assert tables(3) == 0

    def test_reversibility_check(self):
        adder = MultiTruthTable.from_function(2, 2, lambda x: (x + 1) % 4)
        assert adder.is_reversible()
        constant = MultiTruthTable.from_function(2, 2, lambda x: 0)
        assert not constant.is_reversible()

    def test_non_square_not_reversible(self):
        tables = MultiTruthTable.from_function(3, 2, lambda x: x & 3)
        assert not tables.is_reversible()

    def test_mismatched_outputs_rejected(self):
        with pytest.raises(ValueError):
            MultiTruthTable([TruthTable(2), TruthTable(3)])

    def test_image(self):
        tables = MultiTruthTable.from_function(2, 2, lambda x: x ^ 3)
        assert tables.image() == [3, 2, 1, 0]
