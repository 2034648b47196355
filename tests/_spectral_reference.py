"""Bent-function oracles from the Walsh spectrum (test-only).

Bent functions, the heart of the hidden shift problem (Sec. VI.A), are
exactly the functions with a perfectly flat Walsh spectrum:
``|W_f(w)| = 2^{n/2}`` for all ``w``.  The *dual* bent function f~ is
read off the spectrum signs: ``W_f(w) = 2^{n/2} (-1)^{f~(w)}``.  The
library builds duals structurally (``MaioranaMcFarland.dual``); these
spectral definitions are what the tests check it against.
"""

import numpy as np

from repro.boolean.spectral import fwht
from repro.boolean.truth_table import TruthTable


def walsh_spectrum(table: TruthTable) -> np.ndarray:
    """Walsh spectrum ``W_f(w) = sum_x (-1)^{f(x) + w.x}`` for all w."""
    signs = np.array(
        [1 - 2 * table(x) for x in range(table.size)], dtype=np.int64
    )
    return fwht(signs)


def is_bent(table: TruthTable) -> bool:
    """True iff the function has a flat spectrum (requires even n)."""
    n = table.num_vars
    if n % 2 != 0 or n == 0:
        return False
    spectrum = walsh_spectrum(table)
    flat = 1 << (n // 2)
    return bool(np.all(np.abs(spectrum) == flat))


def dual_bent(table: TruthTable) -> TruthTable:
    """Dual bent function f~ with ``W_f(w) = 2^{n/2} (-1)^{f~(w)}``."""
    if not is_bent(table):
        raise ValueError("dual is only defined for bent functions")
    spectrum = walsh_spectrum(table)
    bits = 0
    for w, value in enumerate(spectrum):
        if value < 0:
            bits |= 1 << w
    return TruthTable(table.num_vars, bits)
