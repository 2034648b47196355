"""ESOP (exclusive sum-of-products) extraction and minimization.

ESOP expressions are the input of ESOP-based reversible synthesis
(Sec. V): every cube becomes one multiple-controlled Toffoli gate, so
fewer/shorter cubes mean cheaper circuits.  The paper cites
pseudo-Kronecker expressions [59] and fast heuristic minimization
(exorcism) [60]; this module implements the standard ladder:

* :func:`pprm` — positive-polarity Reed-Muller (unique canonical ESOP),
  via the butterfly (Möbius) transform.
* :func:`fprm` — fixed-polarity Reed-Muller for a given polarity
  vector; :func:`best_fprm` searches polarities (exhaustively up to 10
  variables, greedily beyond).
* :func:`exorcism` — distance-based cube merging (exorlink distance 0,
  1 and 2) as a fast post-pass.
* :func:`minimize_esop` — the convenience entry point combining them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .cube import Cube
from .truth_table import TruthTable


def pprm(table: TruthTable) -> List[Cube]:
    """Positive-polarity Reed-Muller expansion.

    Computes the Möbius transform of the function: coefficient ``c[S]``
    of monomial ``AND_{i in S} x_i`` is obtained by the butterfly over
    the truth vector (bit-parallel via numpy, so 20+ variable tables —
    the paper's scalability regime — stay tractable).
    """
    import numpy as np

    n = table.num_vars
    coeffs = table.to_numpy()
    view = coeffs.reshape([2] * n) if n else coeffs
    for var in range(n):
        axis = n - 1 - var  # axis for input bit `var` (big-endian)
        lower = view.take(0, axis=axis)
        upper = view.take(1, axis=axis)
        upper ^= lower
        # take() copies; write back through slicing instead
        slicer = [slice(None)] * n
        slicer[axis] = 1
        view[tuple(slicer)] = upper
    flat = view.reshape(-1)
    return [Cube(mask=int(s), polarity=int(s)) for s in np.flatnonzero(flat)]


def fprm(table: TruthTable, polarity: int) -> List[Cube]:
    """Fixed-polarity Reed-Muller expansion.

    Bit ``i`` of ``polarity`` = 1 means variable ``i`` appears only in
    negative phase.  The expansion is computed by substituting
    ``x_i <- x_i ^ 1`` for negated variables (input relabelling), taking
    the PPRM there, and flipping the cube polarities back.
    """
    n = table.num_vars
    shifted = table.shift(polarity)  # g(x) = f(x ^ polarity)
    cubes = pprm(shifted)
    return [
        Cube(cube.mask, cube.polarity ^ (polarity & cube.mask))
        for cube in cubes
    ]


def _esop_cost(cubes: Sequence[Cube]) -> Tuple[int, int]:
    """Cost order: (#cubes, total literal count)."""
    return len(cubes), sum(c.num_literals() for c in cubes)


def best_fprm(table: TruthTable) -> Tuple[List[Cube], int]:
    """Search fixed polarities for the cheapest FPRM.

    Exhaustive over all ``2^n`` polarities up to 10 variables, greedy
    bit-flip descent beyond.  Returns (cubes, polarity).
    """
    n = table.num_vars
    if n <= 10:
        best_cubes = None
        best_pol = 0
        for polarity in range(1 << n):
            cubes = fprm(table, polarity)
            if best_cubes is None or _esop_cost(cubes) < _esop_cost(best_cubes):
                best_cubes = cubes
                best_pol = polarity
        return best_cubes if best_cubes is not None else [], best_pol
    # greedy descent from the all-positive polarity
    polarity = 0
    best_cubes = fprm(table, polarity)
    improved = True
    while improved:
        improved = False
        for var in range(n):
            candidate = polarity ^ (1 << var)
            cubes = fprm(table, candidate)
            if _esop_cost(cubes) < _esop_cost(best_cubes):
                best_cubes = cubes
                polarity = candidate
                improved = True
    return best_cubes, polarity


# ----------------------------------------------------------------------
# exorcism-style cube merging
# ----------------------------------------------------------------------
def _merge_distance_one(a: Cube, b: Cube) -> Cube:
    """Merge two cubes at exorlink distance 1 into a single cube."""
    diff_mask = a.mask ^ b.mask
    if diff_mask:
        # one cube contains an extra variable j: m XOR (m & xj) = m & ~xj
        var_bit = diff_mask
        wide, narrow = (a, b) if a.mask & var_bit else (b, a)
        polarity = wide.polarity ^ var_bit  # flip the j literal
        return Cube(wide.mask, polarity & wide.mask)
    # same mask, one opposite literal: (m&xj) XOR (m&~xj) = m without j
    pol_diff = a.polarity ^ b.polarity
    return Cube(a.mask & ~pol_diff, a.polarity & ~pol_diff)


def _exorlink_two(a: Cube, b: Cube) -> List[Tuple[Cube, Cube]]:
    """Alternative 2-cube rewritings of ``a XOR b`` at distance 2.

    For each of the two differing positions, produce the pair obtained
    by "transferring" that position (standard exorlink-2).  Correctness
    is guaranteed by construction and double-checked by the caller.
    """
    positions: List[int] = []
    diff_mask = a.mask ^ b.mask
    shared = a.mask & b.mask
    pol_diff = (a.polarity ^ b.polarity) & shared
    for var in range(max(a.mask | b.mask, 1).bit_length()):
        bit = 1 << var
        if diff_mask & bit or pol_diff & bit:
            positions.append(var)
    if len(positions) != 2:
        return []
    alternatives = []
    for var in positions:
        bit = 1 << var
        # build a' = a with position var changed to agree with b
        if a.mask & bit and b.mask & bit:
            new_a = Cube(a.mask, (a.polarity & ~bit) | (b.polarity & bit))
        elif b.mask & bit:  # a lacks var, b has it: give a the b literal
            new_a = Cube(a.mask | bit, (a.polarity | (b.polarity & bit)))
        else:  # a has var, b lacks it: drop it from a
            new_a = Cube(a.mask & ~bit, a.polarity & ~bit)
        # the residual pair is (new_a, merge of (a ^ new_a) with b):
        # a ^ b = new_a ^ (new_a ^ a ^ b); new_a^a differs from each other
        # in exactly position var, and (new_a ^ a ^ b) is a cube at
        # distance 1 from b -- recompute it via truth-table-free rules:
        residual = _residual_cube(a, new_a, b)
        if residual is not None:
            alternatives.append((new_a, residual))
    return alternatives


def _residual_cube(a: Cube, new_a: Cube, b: Cube) -> Optional[Cube]:
    """Find cube r with a ^ b = new_a ^ r, verified over the joint support."""
    support = a.mask | b.mask | new_a.mask
    num_vars = max(support.bit_length(), 1)
    target = 0
    for x in range(1 << num_vars):
        value = a.evaluate(x) ^ b.evaluate(x) ^ new_a.evaluate(x)
        if value:
            target |= 1 << x
    # the residual must itself be a cube: try cubes over the support
    table = TruthTable(num_vars, target)
    return _table_as_cube(table)


def _table_as_cube(table: TruthTable) -> Optional[Cube]:
    """Return the cube equal to ``table`` or None if it is not a cube."""
    ones = [x for x in range(table.size) if table(x)]
    if not ones:
        return None
    and_mask = ones[0]
    or_mask = 0
    for x in ones:
        and_mask &= x
        or_mask |= x
    fixed = ~(and_mask ^ or_mask) & ((1 << table.num_vars) - 1)
    cube = Cube(fixed, and_mask & fixed)
    if len(ones) != 1 << (table.num_vars - cube.num_literals()):
        return None
    for x in ones:
        if not cube.evaluate(x):
            return None
    return cube


def exorcism(cubes: Sequence[Cube], rounds: int = 4) -> List[Cube]:
    """Greedy exorlink minimization of an ESOP cover.

    Repeatedly removes duplicate cubes (distance 0 pairs cancel under
    XOR), merges distance-1 pairs, and applies distance-2 rewrites when
    they reduce the literal count or enable further merges.
    """
    current = list(cubes)
    for _ in range(rounds):
        before = _esop_cost(current)
        current = _merge_pass(current)
        current = _distance_two_pass(current)
        if _esop_cost(current) >= before:
            break
    return current


def _merge_pass(cubes: List[Cube]) -> List[Cube]:
    """Cancel equal cubes and merge distance-1 pairs to fixpoint."""
    changed = True
    current = list(cubes)
    while changed:
        changed = False
        # distance-0: equal cubes cancel pairwise
        seen = {}
        result: List[Cube] = []
        for cube in current:
            if cube in seen:
                result.remove(cube)
                del seen[cube]
                changed = True
            else:
                seen[cube] = True
                result.append(cube)
        current = result
        # distance-1 merges
        merged = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                if current[i].distance(current[j]) == 1:
                    merged = (i, j, _merge_distance_one(current[i], current[j]))
                    break
            if merged:
                break
        if merged:
            i, j, cube = merged
            current = [
                c for k, c in enumerate(current) if k not in (i, j)
            ]
            current.append(cube)
            changed = True
    return current


def _distance_two_pass(cubes: List[Cube]) -> List[Cube]:
    """Try exorlink-2 rewrites that lower the literal count."""
    current = list(cubes)
    for i in range(len(current)):
        for j in range(i + 1, len(current)):
            a, b = current[i], current[j]
            if a.distance(b) != 2:
                continue
            for new_a, new_b in _exorlink_two(a, b):
                old_cost = a.num_literals() + b.num_literals()
                new_cost = new_a.num_literals() + new_b.num_literals()
                if new_cost < old_cost:
                    current[i], current[j] = new_a, new_b
                    return _merge_pass(current)
    return current


def minterm_cover(table: TruthTable) -> List[Cube]:
    """The trivial ESOP: one minterm cube per satisfying input."""
    return [
        Cube.minterm(table.num_vars, x)
        for x in range(table.size)
        if table(x)
    ]


def minimize_esop(table: TruthTable, effort: str = "medium") -> List[Cube]:
    """Produce a small ESOP cover of ``table``.

    Args:
        table: function to cover.
        effort: ``"fast"`` = PPRM + exorcism; ``"medium"`` adds a
            polarity search; ``"high"`` additionally seeds exorcism
            from the minterm cover and keeps the best result.

    The returned cover always satisfies
    ``esop_to_truth_table(cubes, n) == table`` (tests enforce it).
    """
    if table.bits == 0:
        return []
    candidates: List[List[Cube]] = []
    base = pprm(table)
    candidates.append(exorcism(base))
    if effort in ("medium", "high"):
        fprm_cubes, _ = best_fprm(table)
        candidates.append(exorcism(fprm_cubes))
    if effort == "high":
        candidates.append(exorcism(minterm_cover(table), rounds=8))
    best = min(candidates, key=_esop_cost)
    return best
