"""Unit tests for Maiorana–McFarland bent functions and instances."""

import pytest

from _spectral_reference import dual_bent, is_bent
from repro.boolean.bent import (
    HiddenShiftInstance,
    MaioranaMcFarland,
    MaioranaMcFarlandDual,
)
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable


class TestMaioranaMcFarland:
    def test_inner_product_special_case(self):
        mm = MaioranaMcFarland.inner_product(2)
        assert mm.truth_table() == TruthTable.inner_product(2)

    def test_arity_check(self):
        with pytest.raises(ValueError):
            MaioranaMcFarland(BitPermutation.identity(2), TruthTable(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_always_bent(self, seed):
        mm = MaioranaMcFarland.random(2, seed=seed)
        assert is_bent(mm.truth_table())

    def test_evaluate_matches_definition(self):
        pi = BitPermutation([0, 2, 3, 1])
        h = TruthTable(2, 0b0110)
        mm = MaioranaMcFarland(pi, h)
        for x in range(4):
            for y in range(4):
                expected = (bin(x & pi(y)).count("1") & 1) ^ h(y)
                assert mm.evaluate(x, y) == expected
                assert mm(x | (y << 2)) == expected

    def test_structured_dual_matches_spectral_dual(self):
        """The closed-form MM dual must equal the Walsh-spectrum dual."""
        for seed in range(5):
            mm = MaioranaMcFarland.random(2, seed=seed)
            assert mm.dual().truth_table() == dual_bent(mm.truth_table())

    def test_paper_instance_dual(self):
        mm = MaioranaMcFarland(
            BitPermutation([0, 2, 3, 5, 7, 1, 4, 6]), TruthTable(3)
        )
        assert mm.dual().truth_table() == dual_bent(mm.truth_table())

    def test_dual_evaluate(self):
        pi = BitPermutation([1, 0, 3, 2])
        dual = MaioranaMcFarlandDual(pi.inverse(), TruthTable(2))
        for x in range(4):
            for y in range(4):
                expected = bin(pi.inverse()(x) & y).count("1") & 1
                assert dual.evaluate(x, y) == expected


class TestHiddenShiftInstance:
    def test_g_table_is_shift_of_f(self):
        instance = HiddenShiftInstance.random(2, seed=3)
        f = instance.f_table()
        g = instance.g_table()
        for x in range(16):
            assert g(x) == f(x ^ instance.shift)

    def test_dual_tables_agree(self):
        instance = HiddenShiftInstance.random(2, seed=4)
        assert instance.dual_table() == dual_bent(instance.f_table())

    def test_shift_range_check(self):
        mm = MaioranaMcFarland.inner_product(1)
        with pytest.raises(ValueError):
            HiddenShiftInstance(mm, 4)

    def test_random_reproducible(self):
        a = HiddenShiftInstance.random(2, seed=9)
        b = HiddenShiftInstance.random(2, seed=9)
        assert a.shift == b.shift
        assert a.f_table() == b.f_table()
