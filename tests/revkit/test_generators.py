"""Unit tests for the revgen benchmark generators."""

import pytest

from _spectral_reference import is_bent

from repro.revkit import generators


class TestGenerators:
    def test_hwb(self):
        perm = generators.hwb(4)
        assert perm.num_bits == 4
        assert perm(0) == 0

    def test_random_permutation_seeded(self):
        assert generators.random_permutation(3, seed=2) == \
            generators.random_permutation(3, seed=2)

    def test_modular_adder(self):
        perm = generators.modular_adder(3, 3)
        for x in range(8):
            assert perm(x) == (x + 3) % 8

    def test_modular_adder_is_cyclic(self):
        perm = generators.modular_adder(3, 1)
        cycles = perm.cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 8

    def test_bit_rotation(self):
        perm = generators.bit_rotation(4, 1)
        assert perm(0b0001) == 0b0010
        assert perm(0b1000) == 0b0001

    def test_bit_rotation_composes_to_identity(self):
        perm = generators.bit_rotation(4, 1)
        result = perm
        for _ in range(3):
            result = result.compose(perm)
        assert result.cycles() == []

    def test_gray_code(self):
        perm = generators.gray_code(3)
        for x in range(8):
            assert perm(x) == x ^ (x >> 1)

    def test_inner_product_bent(self):
        assert is_bent(generators.inner_product_bent(2))

    def test_random_function_seeded(self):
        assert generators.random_function(4, seed=1) == \
            generators.random_function(4, seed=1)
