"""Embedding irreversible functions into reversible ones (Sec. V).

Two strategies from the paper:

* :func:`bennett_embedding` — Eq. (3): ``g(x, y) = (x, y ^ f(x))`` on
  ``n + m`` lines; always applicable, never minimal.
* :func:`explicit_embedding` — Eq. (2): find a reversible ``g`` on
  ``r`` lines whose restriction to ``(x, 0...0)`` computes ``f`` in
  place.  Finding minimal ``r`` is coNP-hard [53]; this implementation
  computes the information-theoretic lower bound
  ``r >= n_inputs'`` needed to disambiguate output multiplicities and
  constructs a matching bijection greedily.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Union

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import MultiTruthTable, TruthTable


def bennett_embedding(
    function: Union[TruthTable, MultiTruthTable]
) -> BitPermutation:
    """The reversible function g(x, y) = (x, y XOR f(x)).

    Input layout: x on bits 0..n-1, y on bits n..n+m-1.
    """
    tables = (
        [function] if isinstance(function, TruthTable) else list(function.outputs)
    )
    n = tables[0].num_vars
    m = len(tables)
    image = []
    for value in range(1 << (n + m)):
        x = value & ((1 << n) - 1)
        y = value >> n
        fx = 0
        for j, table in enumerate(tables):
            fx |= table(x) << j
        image.append(x | ((y ^ fx) << n))
    return BitPermutation(image)


def minimum_garbage_bits(function: Union[TruthTable, MultiTruthTable]) -> int:
    """Lower bound on garbage outputs: ceil(log2(max output multiplicity))."""
    multiplicity = _output_multiplicities(function)
    worst = max(multiplicity.values())
    return math.ceil(math.log2(worst)) if worst > 1 else 0


def explicit_embedding(
    function: Union[TruthTable, MultiTruthTable]
) -> Tuple[BitPermutation, int]:
    """In-place embedding per Eq. (2).

    Returns ``(g, r)`` where ``g`` is a reversible function on ``r``
    bits with ``g(x, 0^{r-n}) = (f(x), garbage)``: output bits
    ``0..m-1`` carry ``f``, the remaining bits are garbage.  ``r`` is
    ``max(n + a, m + ceil(log2 max-multiplicity) + a')`` realized
    greedily at the information-theoretic minimum
    ``r = max(n, m + g_min)`` with ``g_min = minimum_garbage_bits``.
    """
    tables = (
        [function] if isinstance(function, TruthTable) else list(function.outputs)
    )
    n = tables[0].num_vars
    m = len(tables)
    g_min = minimum_garbage_bits(function)
    r = max(n, m + g_min)

    def evaluate(x: int) -> int:
        fx = 0
        for j, table in enumerate(tables):
            fx |= table(x) << j
        return fx

    # assign each constrained input (x, 0) the output (f(x), counter)
    image: Dict[int, int] = {}
    used = set()
    counters: Dict[int, int] = {}
    for x in range(1 << n):
        fx = evaluate(x)
        counter = counters.get(fx, 0)
        counters[fx] = counter + 1
        output = fx | (counter << m)
        if output >= (1 << r) or output in used:
            raise AssertionError("embedding bound violated")
        image[x] = output        # inputs (x, 0..0) are exactly 0..2^n-1
        used.add(output)
    # complete to a bijection on the unconstrained inputs
    free_outputs = [v for v in range(1 << r) if v not in used]
    index = 0
    full_image: List[int] = []
    for value in range(1 << r):
        if value in image:
            full_image.append(image[value])
        else:
            full_image.append(free_outputs[index])
            index += 1
    return BitPermutation(full_image), r


def _output_multiplicities(
    function: Union[TruthTable, MultiTruthTable]
) -> Dict[int, int]:
    tables = (
        [function] if isinstance(function, TruthTable) else list(function.outputs)
    )
    n = tables[0].num_vars
    counts: Dict[int, int] = {}
    for x in range(1 << n):
        fx = 0
        for j, table in enumerate(tables):
            fx |= table(x) << j
        counts[fx] = counts.get(fx, 0) + 1
    return counts
