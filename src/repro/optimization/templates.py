"""Template-based MCT network optimization.

The classical RevKit/Maslov–Dueck–Miller template rules [50] on top of
plain cancellation (:func:`repro.optimization.simplify.simplify_reversible`):

* **duplicate rule** — equal adjacent gates cancel;
* **control-merge rule** — gates with the same target whose control
  sets differ by a single extra control merge into one gate with that
  control negated:  ``T(C + c, t) . T(C, t) = T(C + !c, t)``;
* **polarity rule** — gates identical except for one control polarity
  merge into one gate without that control:
  ``T(C + c, t) . T(C + !c, t) = T(C, t)``;
* **not-absorption** — X(c) T(..c..) X(c) flips the polarity of c.

Rules are applied through commutation-aware adjacency (gates may slide
past each other when neither target is the other's control), iterated
to a fixpoint.  Every rewrite is semantics-preserving; the tests check
the permutation after every pass.
"""

from __future__ import annotations

from typing import List, Optional

from ..synthesis.reversible import MctGate, ReversibleCircuit
from .simplify import _absorb_not, _mct_commute


def _merge_pair(a: MctGate, b: MctGate) -> Optional[MctGate]:
    """Apply the control-merge or polarity rule to two gates."""
    if a.target != b.target:
        return None
    mask_a, mask_b = a.control_mask(), b.control_mask()
    pol_a, pol_b = a.polarity_mask(), b.polarity_mask()
    if mask_a == mask_b:
        if a == b:
            # duplicate: handled by cancellation, not merging
            return None
        diff = pol_a ^ pol_b
        if bin(diff).count("1") == 1:
            # polarity rule: drop the differing control
            keep = mask_a & ~diff
            return MctGate.from_masks(a.target, keep, pol_a & keep)
        return None
    diff = mask_a ^ mask_b
    if bin(diff).count("1") != 1:
        return None
    wide, wide_pol, narrow_pol = (
        (a, pol_a, pol_b) if mask_a & diff else (b, pol_b, pol_a)
    )
    narrow_mask = wide.control_mask() & ~diff
    # shared controls must agree in polarity
    if (wide_pol & narrow_mask) != (narrow_pol & narrow_mask):
        return None
    # control-merge rule: negate the extra control
    new_pol = (wide_pol ^ diff) & wide.control_mask()
    return MctGate.from_masks(wide.target, wide.control_mask(), new_pol)


def template_optimize(
    circuit: ReversibleCircuit, max_rounds: int = 20
) -> ReversibleCircuit:
    """Apply the template rewriting rules to a fixpoint.

    Args:
        circuit: the MCT cascade to rewrite.
        max_rounds: fixpoint iteration bound.

    Returns:
        A new cascade realizing the same permutation, never larger
        than the input.
    """
    gates = list(circuit.gates)
    for _ in range(max_rounds):
        changed = (
            _cancel_pass(gates)
            or _merge_pass(gates)
            or _absorb_pass(gates)
        )
        if not changed:
            break
    out = ReversibleCircuit(circuit.num_lines, circuit.name + "_templ")
    out.extend(gates)
    return out


def _find_partner(gates: List[MctGate], index: int):
    """Indices reachable from gates[index] through commuting gates."""
    for j in range(index + 1, len(gates)):
        yield j
        if not _mct_commute(gates[index], gates[j]):
            return


def _cancel_pass(gates: List[MctGate]) -> bool:
    for i in range(len(gates)):
        for j in _find_partner(gates, i):
            if gates[i] == gates[j]:
                del gates[j]
                del gates[i]
                return True
    return False


def _merge_pass(gates: List[MctGate]) -> bool:
    for i in range(len(gates)):
        for j in _find_partner(gates, i):
            merged = _merge_pair(gates[i], gates[j])
            if merged is not None:
                # gate i slides forward past the (commuting) gates in
                # between, so the merged gate lives at position j-1
                del gates[j]
                del gates[i]
                gates.insert(j - 1, merged)
                return True
    return False


def _absorb_pass(gates: List[MctGate]) -> bool:
    for i in range(len(gates) - 2):
        if gates[i].num_controls == 0 and gates[i] == gates[i + 2]:
            absorbed = _absorb_not(gates[i], gates[i + 1])
            if absorbed is not None:
                gates[i:i + 3] = [absorbed]
                return True
    return False
