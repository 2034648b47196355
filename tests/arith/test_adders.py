"""Unit tests for reversible arithmetic blocks.

Every block is checked by exhaustive permutation simulation against
its integer specification — the verification discipline Sec. IX of the
paper calls for.
"""

import pytest

from repro.arith import (
    constant_adder,
    controlled_increment,
    cuccaro_adder,
    modular_constant_adder,
)


class TestControlledIncrement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plain_increment(self, n):
        circuit = controlled_increment(n, list(range(n)))
        perm = circuit.permutation()
        for x in range(1 << n):
            assert perm(x) == (x + 1) % (1 << n)

    def test_controlled(self):
        circuit = controlled_increment(4, [0, 1, 2], controls=[3])
        perm = circuit.permutation()
        for x in range(8):
            assert perm(x) == x
            assert perm(x | 8) == ((x + 1) % 8) | 8

    def test_gate_count_linear(self):
        circuit = controlled_increment(6, list(range(6)))
        assert len(circuit) == 6

    def test_overlapping_registers_rejected(self):
        with pytest.raises(ValueError):
            controlled_increment(3, [0, 1], controls=[1])


class TestCuccaroAdder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_addition(self, n):
        perm = cuccaro_adder(n).permutation()
        mask = (1 << n) - 1
        for a in range(1 << n):
            for b in range(1 << n):
                out = perm(a | (b << n))
                assert out & mask == a
                assert (out >> n) & mask == (a + b) % (1 << n)
                assert (out >> (2 * n)) & 1 == 0  # ancilla restored

    def test_carry_out(self):
        n = 3
        perm = cuccaro_adder(n, carry_out=2 * n + 1).permutation()
        for a in range(8):
            for b in range(8):
                out = perm(a | (b << n))
                assert (out >> (2 * n + 1)) & 1 == ((a + b) >> n) & 1

    def test_subtraction_via_dagger(self):
        n = 3
        adder = cuccaro_adder(n)
        perm = adder.dagger().permutation()
        mask = (1 << n) - 1
        for a in range(8):
            for s in range(8):
                out = perm(a | (s << n))
                assert (out >> n) & mask == (s - a) % 8

    def test_only_cnot_and_toffoli(self):
        circuit = cuccaro_adder(4)
        assert all(g.num_controls <= 2 for g in circuit)

    def test_custom_layout(self):
        perm = cuccaro_adder(
            2, a_lines=[4, 3], b_lines=[1, 0], ancilla=2
        ).permutation()
        # a bit0 on line 4, bit1 on 3; b bit0 on line 1, bit1 on 0
        a, b = 1, 2  # a = 01, b = 10
        inp = (1 << 4) | (1 << 0)
        out = perm(inp)
        total = (a + b) % 4
        assert (out >> 1) & 1 == total & 1
        assert (out >> 0) & 1 == (total >> 1) & 1


class TestConstantAdder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_constants(self, n):
        for constant in range(1 << n):
            perm = constant_adder(n, constant).permutation()
            for x in range(1 << n):
                assert perm(x) == (x + constant) % (1 << n)

    def test_controlled_variant(self):
        perm = constant_adder(3, 5, controls=(3,), num_lines=4).permutation()
        for x in range(8):
            assert perm(x) == x
            assert perm(x | 8) == ((x + 5) % 8) | 8

    def test_zero_constant_is_identity(self):
        assert constant_adder(4, 0).permutation().cycles() == []

    def test_wraparound(self):
        perm = constant_adder(3, 9).permutation()  # 9 mod 8 = 1
        assert perm(0) == 1


class TestModularAdder:
    @pytest.mark.parametrize(
        "n,modulus", [(2, 3), (3, 5), (3, 7), (3, 8), (4, 11), (4, 13)]
    )
    def test_modular_addition(self, n, modulus):
        for constant in range(modulus):
            perm = modular_constant_adder(n, constant, modulus).permutation()
            for x in range(modulus):
                out = perm(x)
                assert out & ((1 << n) - 1) == (x + constant) % modulus
                assert (out >> n) & 1 == 0  # flag uncomputed

    def test_reversibility_on_full_domain(self):
        # even don't-care inputs must map bijectively (constructor of
        # BitPermutation inside .permutation() enforces it)
        modular_constant_adder(3, 2, 5).permutation()

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            modular_constant_adder(2, 1, 9)

    def test_composition_is_group_action(self):
        """Adding c1 then c2 equals adding c1+c2 (mod N) on x < N."""
        n, modulus = 3, 5
        first = modular_constant_adder(n, 2, modulus)
        second = modular_constant_adder(n, 4, modulus)
        combined = modular_constant_adder(n, 6 % modulus, modulus)
        composed = first.copy()
        composed.compose(second)
        pa = composed.permutation()
        pb = combined.permutation()
        for x in range(modulus):
            assert pa(x) == pb(x)
