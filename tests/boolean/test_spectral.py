"""Unit tests for Walsh–Hadamard spectral analysis."""

import random

import numpy as np
import pytest

from _spectral_reference import dual_bent, is_bent, walsh_spectrum
from repro.boolean.spectral import correlation, find_shift_classically, fwht
from repro.boolean.truth_table import TruthTable


def autocorrelation(table):
    """``r(a) = sum_x (-1)^{f(x) + f(x ^ a)}``, from the definition."""
    return [
        sum(1 - 2 * (table(x) ^ table(x ^ a)) for x in range(table.size))
        for a in range(table.size)
    ]


class TestTransform:
    def test_fwht_involution_up_to_scale(self):
        rng = random.Random(0)
        vec = np.array([rng.randint(-5, 5) for _ in range(16)])
        assert np.array_equal(fwht(fwht(vec)), 16 * vec)

    def test_spectrum_of_constant(self):
        spectrum = walsh_spectrum(TruthTable.constant(3, False))
        assert spectrum[0] == 8
        assert np.all(spectrum[1:] == 0)

    def test_spectrum_of_linear_function(self):
        # f = x0 ^ x1 concentrates at w = 0b11
        table = TruthTable.from_function(2, lambda a, b: a ^ b)
        spectrum = walsh_spectrum(table)
        # f(x) equals w.x at w = 0b11, so the exponent vanishes: +4
        assert spectrum[0b11] == 4
        assert sum(abs(int(v)) for v in spectrum) == 4

    def test_parseval(self):
        rng = random.Random(2)
        for _ in range(10):
            table = TruthTable(4, rng.getrandbits(16))
            spectrum = walsh_spectrum(table)
            assert int(np.sum(spectrum.astype(object) ** 2)) == 16 * 16


class TestBentness:
    def test_inner_product_is_bent(self):
        for half in (1, 2, 3):
            assert is_bent(TruthTable.inner_product(half))

    def test_linear_function_not_bent(self):
        assert not is_bent(TruthTable.projection(4, 0))

    def test_odd_arity_never_bent(self):
        assert not is_bent(TruthTable(3, 0b10010110))

    def test_shifted_bent_still_bent(self):
        table = TruthTable.inner_product(2)
        for shift in range(16):
            assert is_bent(table.shift(shift))


class TestDual:
    def test_ip_self_dual(self):
        table = TruthTable.inner_product(2)
        assert dual_bent(table) == table

    def test_dual_involution(self):
        from repro.boolean.bent import MaioranaMcFarland

        mm = MaioranaMcFarland.random(2, seed=7)
        table = mm.truth_table()
        assert dual_bent(dual_bent(table)) == table

    def test_dual_requires_bent(self):
        with pytest.raises(ValueError):
            dual_bent(TruthTable.projection(4, 0))

    def test_dual_spectrum_signs(self):
        table = TruthTable.inner_product(2)
        dual = dual_bent(table)
        spectrum = walsh_spectrum(table)
        for w in range(16):
            expected = 4 if dual(w) == 0 else -4
            assert spectrum[w] == expected


class TestCorrelationAndShiftRecovery:
    def test_correlation_peak_at_shift(self):
        table = TruthTable.inner_product(2)
        shifted = table.shift(9)
        corr = correlation(table, shifted)
        assert abs(int(corr[9])) == 16

    def test_find_shift(self):
        rng = random.Random(5)
        table = TruthTable.inner_product(2)
        for _ in range(10):
            s = rng.randrange(16)
            assert find_shift_classically(table, table.shift(s)) == s

    def test_find_shift_rejects_unrelated(self):
        f = TruthTable.inner_product(2)
        g = TruthTable(4, 0x1234)
        assert find_shift_classically(f, g) is None


class TestAutocorrelation:
    def test_pn_equals_bent_on_random_functions(self):
        """Bent iff perfectly nonlinear: r(a) = 0 for every a != 0."""
        rng = random.Random(4)
        for _ in range(30):
            table = TruthTable(4, rng.getrandbits(16))
            r = autocorrelation(table)
            assert r[0] == 16
            assert (not any(r[1:])) == is_bent(table)
        assert not any(autocorrelation(TruthTable.inner_product(2))[1:])
