"""``tiers.rewrite_groups`` against the reference certificate check.

:func:`repro.verify.tiers.rewrite_groups` validates a gate-cancellation
certificate in one walk that tests identity before ``==`` and tracks
only the open groups.  ``tests/_rewrite_reference.py`` keeps the
original check (a fence count per prefix, one stack per wire ever
seen, ``==`` on every kept gate).  The two must return the same value
— the same member gates and references, or ``None`` — on the
certificates ``cancel`` hands out and on randomly mutated ones:
members dropped, shifted, merged or swapped across groups, slots off
by one or ``None``, and fences, ``id`` gates or foreign indices
inserted.  :func:`repro.verify.tiers.strip_common_gates` likewise
tests identity first, and must strip what an ``==``-only strip does.

Randomized cases use the Hypothesis profile of ``tests/conftest.py``
(``HYPOTHESIS_PROFILE=ci`` derandomizes them).
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _rewrite_reference as reference
from repro.core.gates import Gate
from repro.optimization.simplify import cancel_with_groups
from repro.verify import tiers
from test_block_tier import fig10_pool
from test_rewrite_tier import (
    FORGED_ON_CORRECT,
    FORGED_ON_WRONG,
    cancel_inputs,
    circuits,
    g,
)

MUTATIONS = (
    "drop", "shift", "merge", "swap", "slot", "slot-none", "fence", "id",
    "foreign", "type",
)


def assert_same(before, after, groups):
    ours = tiers.rewrite_groups(before, after, groups)
    assert ours == reference.rewrite_groups(before, after, groups)
    return ours


def _shifted(groups, at):
    """The certificate after inserting an input gate at index ``at``."""
    return [
        ([i + 1 if i >= at else i for i in members], slot)
        for members, slot in groups
    ]


def _output_position(before, groups, at):
    """How many output gates the certificate puts before input ``at``."""
    grouped = {i for members, _ in groups for i in members}
    kept = sum(
        1 for i, gate in enumerate(before[:at])
        if i not in grouped and gate.name != "id"
    )
    return kept + sum(
        1 for members, slot in groups if slot is not None and members[0] < at
    )


def mutate(before, after, groups, mutation, rng):
    """One random edit of the certificate (and, for insertions, the input).

    Returns ``(before, after, groups)``.
    """
    before, after = list(before), list(after)
    groups = [(list(members), slot) for members, slot in groups]
    if mutation in ("fence", "id", "foreign") or not groups:
        at = rng.randint(0, len(before))
        if mutation == "foreign":
            gate = Gate("h", (rng.randint(0, 3),))
        elif mutation == "id":
            gate = Gate("id", (rng.randint(0, 3),))
        else:
            gate = Gate(
                rng.choice(["barrier", "measure"]), (rng.randint(0, 3),),
                cbits=(0,) if rng.random() < 0.5 else (),
            )
        if mutation != "id" and rng.random() < 0.75:
            # keep the output claim true, so the fence and nesting
            # rules decide
            after.insert(_output_position(before, groups, at), gate)
        before.insert(at, gate)
        groups = _shifted(groups, at)
        if mutation == "foreign" and groups:
            # the inserted index also joins a group
            members, slot = rng.choice(groups)
            members.append(at)
            members.sort()
        return before, after, [(tuple(m), s) for m, s in groups]
    chosen = rng.randrange(len(groups))
    members, slot = groups[chosen]
    # a "type" mutation may have emptied the group
    if mutation == "drop" and members:
        del members[rng.randrange(len(members))]
    elif mutation == "shift" and members:
        k = rng.randrange(len(members))
        members[k] += rng.choice([-2, -1, 1, 2])
    elif mutation == "merge" and len(groups) > 1:
        other = rng.choice(
            [k for k in range(len(groups)) if k != chosen]
        )
        members.extend(groups[other][0])
        members.sort()
        del groups[other]
    elif mutation == "swap" and len(groups) > 1 and members:
        other = rng.choice(
            [k for k in range(len(groups)) if k != chosen]
        )
        others = groups[other][0]
        if others:
            a, b = rng.randrange(len(members)), rng.randrange(len(others))
            members[a], others[b] = others[b], members[a]
            if rng.random() < 0.5:
                members.sort()
                others.sort()
    elif mutation == "slot":
        base = rng.randint(0, len(after)) if slot is None else slot
        groups[chosen] = (members, base + rng.choice([-1, 1]))
    elif mutation == "slot-none":
        groups[chosen] = (members, None if slot is not None else 0)
    elif mutation == "type":
        groups[chosen] = rng.choice([
            (members, float(slot or 0)),
            (members, True),
            ([float(i) for i in members], slot),
            ([-1] + members, slot),
            ([], slot),
            (members + [len(before)], slot),
        ])
    return before, after, [(tuple(m), s) for m, s in groups]


@given(
    circuit=circuits(),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_circuits_and_mutated_certificates(circuit, mutations, seed):
    out, groups = cancel_with_groups(circuit)
    before, after = list(circuit.gates), list(out.gates)
    assert assert_same(before, after, groups) is not None
    rng = random.Random(seed)
    for mutation in mutations:
        before, after, groups = mutate(before, after, groups, mutation, rng)
        assert_same(before, after, groups)


@given(
    circuit=circuits(),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_certificates_against_equal_copies_of_the_output(
    circuit, mutation, seed
):
    # kept gates that are equal but not the same objects take the
    # ``==`` path of the walk
    out, groups = cancel_with_groups(circuit)
    copies = [
        Gate(gate.name, gate.targets, gate.controls, gate.params, gate.cbits)
        for gate in out.gates
    ]
    before, after = list(circuit.gates), copies
    assert_same(before, after, groups)
    assert_same(*mutate(before, after, groups, mutation,
                        random.Random(seed)))


def test_fig10_pool_certificates():
    rng = random.Random(2018)
    validated = 0
    for spec in fig10_pool():
        (circuit,) = cancel_inputs(list(spec), "qsharp")
        out, groups = cancel_with_groups(circuit)
        validated += assert_same(circuit.gates, out.gates, groups) is not None
        for mutation in MUTATIONS:
            assert_same(*mutate(circuit.gates, out.gates, groups, mutation,
                                rng))
    assert validated == len(fig10_pool())


#: hand-made certificates on both sides of each claim, ``(input
#: gates, output gates, certificate)``
HAND_MADE = {
    **{f"{name} (correct)": case[1:]
       for name, case in FORGED_ON_CORRECT.items()},
    **{f"{name} (wrong)": case[1:]
       for name, case in FORGED_ON_WRONG.items()},
    # a merged rotation inside a pair's gap on its wire
    "fused group inside a gap": (
        [g("h", 0), g("rz", 0, params=(0.1,)), g("rz", 0, params=(0.2,)),
         g("h", 0)],
        [g("rz", 0, params=(0.3,))], [((0, 3), None), ((1, 2), 0)],
    ),
    # the same, fused into nothing, is fine
    "vanishing group inside a gap": (
        [g("h", 0), g("t", 0), g("tdg", 0), g("h", 0)], [],
        [((0, 3), None), ((1, 2), None)],
    ),
    "fence inside a gap on another wire": (
        [g("h", 0), g("barrier", 1), g("h", 0)], [g("barrier", 1)],
        [((0, 2), None)],
    ),
    "kept gate after the output ends": (
        [g("h", 0), g("x", 1)], [g("h", 0)], [],
    ),
    "fewer groups than the output holds": (
        [g("h", 0)], [g("h", 0), g("x", 1)], [],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_hand_made_certificates(case):
    before, after, groups = HAND_MADE[case]
    assert_same(before, after, groups)


def _strip_by_equality(before, after):
    """The common prefix and suffix stripped with ``==`` alone."""
    lo, hi = 0, min(len(before), len(after))
    while lo < hi and before[lo] == after[lo]:
        lo += 1
    tail = 0
    while tail < hi - lo and before[-1 - tail] == after[-1 - tail]:
        tail += 1
    return before[lo:len(before) - tail], after[lo:len(after) - tail]


@given(
    circuit=circuits(),
    cut=st.integers(min_value=0),
    middle=st.lists(st.sampled_from(["h", "x", "sx", "t"]), max_size=3),
    copy=st.booleans(),
)
def test_strip_common_gates_strips_what_equality_strips(
    circuit, cut, middle, copy
):
    # ``after`` keeps ``before``'s gates (the same objects or equal
    # copies) around a rewritten middle
    before = list(circuit.gates)
    at = cut % (len(before) + 1)
    kept = [
        Gate(gate.name, gate.targets, gate.controls, gate.params, gate.cbits)
        if copy else gate
        for gate in before
    ]
    after = kept[:at] + [Gate(name, (0,)) for name in middle] + kept[at + 1:]
    for pair in ((before, after), (after, before), (before, kept)):
        assert tiers.strip_common_gates(*pair) == _strip_by_equality(*pair)
