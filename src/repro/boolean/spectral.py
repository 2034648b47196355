"""Walsh–Hadamard correlation of Boolean functions.

The classical baseline of the hidden shift problem (Sec. VI.A): the
cross-correlation of ``f`` and ``g`` peaks at the shift.  The transform
is computed with the fast Walsh–Hadamard butterfly in O(n 2^n) using
numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .truth_table import TruthTable


def fwht(vector: np.ndarray) -> np.ndarray:
    """In-place-style fast Walsh–Hadamard transform (unnormalized)."""
    out = vector.astype(np.int64).copy()
    size = out.size
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            a = out[start:start + h].copy()
            b = out[start + h:start + 2 * h].copy()
            out[start:start + h] = a + b
            out[start + h:start + 2 * h] = a - b
        h *= 2
    return out


def correlation(f: TruthTable, g: TruthTable) -> np.ndarray:
    """Cross-correlation ``C(s) = sum_x (-1)^{f(x) + g(x ^ s)}``.

    For a bent pair ``g(x) = f(x ^ s0)`` the correlation is
    ``+-2^n`` exactly at ``s = s0`` — the classical counterpart of the
    quantum hidden-shift algorithm's interference pattern.
    """
    if f.num_vars != g.num_vars:
        raise ValueError("functions over different variable counts")
    sf = np.array([1 - 2 * f(x) for x in range(f.size)], dtype=np.int64)
    sg = np.array([1 - 2 * g(x) for x in range(g.size)], dtype=np.int64)
    # convolution over (Z_2)^n diagonalizes under WHT
    product = fwht(sf) * fwht(sg)
    return fwht(product) // f.size


def find_shift_classically(f: TruthTable, g: TruthTable) -> Optional[int]:
    """Recover s with g(x) = f(x ^ s) by exhaustive correlation.

    This is the (exponential-time) classical baseline the quantum
    algorithm beats; used by tests and benches as ground truth.
    """
    corr = correlation(f, g)
    peak = int(np.argmax(np.abs(corr)))
    if abs(int(corr[peak])) == f.size:
        # confirm it is a true shift
        for x in range(f.size):
            if g(x) != f(x ^ peak):
                return None
        return peak
    return None
