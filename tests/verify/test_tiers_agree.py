"""Differential testing: every cheap tier agrees with the dense oracle.

Hypothesis draws random reversible cascades and random Clifford /
Clifford+T circuits at n <= 10 qubits, perturbs them into equivalent
or inequivalent pairs, and checks that the verdict of each sub-dense
tier — permutation tables, stabilizer tableaus, seeded fidelity
probes — matches the dense-unitary oracle in BOTH directions: the
cheap tier accepts exactly when the oracle accepts, and rejects
exactly when it rejects.  The dense tiers are disabled through the
checker's ``max_dense_qubits`` knob so the cheap tier genuinely
produces the verdict under test.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``) the run is
derandomized, so CI failures replay exactly.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _dense_reference import circuits_equivalent

from repro.core.circuit import QuantumCircuit
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.verify import EquivalenceChecker

#: Clifford vocabulary the stabilizer tier claims; the +T extension
#: pushes pairs past the tableau into the probe tier.
CLIFFORD_NAMES = ("h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap")
CLIFFORD_T_NAMES = CLIFFORD_NAMES + ("t", "tdg")

#: gate pairs that compose to the identity, used to build pairs that
#: are equivalent without being syntactically equal
_CANCELING = {
    "h": "h", "x": "x", "y": "y", "z": "z",
    "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
    "cx": "cx", "cz": "cz", "swap": "swap",
}


def _no_dense(**overrides):
    """A checker whose dense tiers can never run."""
    return dataclasses.replace(
        EquivalenceChecker(), max_dense_qubits=0, **overrides
    )


@st.composite
def quantum_pairs(draw, names):
    """Draw ``(a, b)`` with ``b`` an equivalent or corrupted copy."""
    n = draw(st.integers(min_value=2, max_value=6))
    a = QuantumCircuit(n)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        name = draw(st.sampled_from(names))
        q1 = draw(st.integers(min_value=0, max_value=n - 1))
        if name in ("cx", "cz", "swap"):
            q2 = draw(st.integers(min_value=0, max_value=n - 2))
            if q2 >= q1:
                q2 += 1
            getattr(a, name)(q1, q2)
        else:
            getattr(a, name)(q1)
    b = a.copy()
    kind = draw(st.sampled_from(("equal", "extra", "drop", "flip")))
    if kind == "equal":
        # splice a canceling pair at a random cut: semantically equal,
        # syntactically different
        cut = draw(st.integers(min_value=0, max_value=len(a.gates)))
        name = draw(st.sampled_from(names))
        q = draw(st.integers(min_value=0, max_value=n - 1))
        probe = QuantumCircuit(n)
        if name in ("cx", "cz", "swap"):
            q2 = (q + 1) % n
            getattr(probe, name)(q, q2)
            getattr(probe, _CANCELING[name])(q, q2)
        else:
            getattr(probe, name)(q)
            getattr(probe, _CANCELING[name])(q)
        b.gates = b.gates[:cut] + probe.gates + b.gates[cut:]
    elif kind == "extra":
        gate = draw(st.sampled_from(("x", "z", "h", "s")))
        getattr(b, gate)(draw(st.integers(min_value=0, max_value=n - 1)))
    elif kind == "drop":
        b.gates = b.gates[:-1]
    else:  # flip: replace the last gate's wires with shifted ones
        gate = b.gates[-1]
        shift = {q: (q + 1) % n for q in range(n)}
        b.gates[-1] = gate.remap(shift)
    return a, b


@st.composite
def reversible_pairs(draw):
    """Draw ``(a, b)`` cascades at up to 10 lines."""
    n = draw(st.integers(min_value=2, max_value=10))
    a = ReversibleCircuit(n)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        lines = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=min(3, n),
                unique=True,
            )
        )
        a.add_gate(lines[0], tuple(lines[1:]))
    b = a.copy()
    target = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        # an involution appended twice preserves the permutation
        b.x(target).x(target)
    else:
        # any single MCT gate composes a non-identity involution onto
        # the cascade, so the permutation always changes
        b.x(target)
    return a, b


def _table(cascade):
    return tuple(cascade.apply(x) for x in range(1 << cascade.num_lines))


class TestPermutationTierAgrees:
    @given(pair=reversible_pairs())
    def test_matches_the_exhaustive_table(self, pair):
        a, b = pair
        verdict = EquivalenceChecker().check_same_permutation(a, b)
        assert not verdict.skipped
        assert verdict.tier == "permutation"
        assert verdict.passed == (_table(a) == _table(b))


class TestStabilizerTierAgrees:
    @given(pair=quantum_pairs(CLIFFORD_NAMES))
    def test_matches_the_dense_oracle(self, pair):
        a, b = pair
        verdict = _no_dense().check_same_unitary(a, b)
        oracle = circuits_equivalent(a, b)
        assert not verdict.skipped
        assert verdict.tier in ("syntactic", "stabilizer")
        assert verdict.passed == oracle


class TestProbeTierAgrees:
    @given(pair=quantum_pairs(CLIFFORD_T_NAMES))
    def test_matches_the_dense_oracle(self, pair):
        a, b = pair
        verdict = _no_dense().check_same_unitary(a, b)
        oracle = circuits_equivalent(a, b)
        assert not verdict.skipped
        # stripped remainders may still be Clifford — the checker is
        # free to answer from the cheaper tableau when they are
        assert verdict.tier in ("syntactic", "stabilizer", "probes")
        assert verdict.passed == oracle

    @given(pair=quantum_pairs(CLIFFORD_T_NAMES))
    def test_probe_acceptance_is_seed_stable(self, pair):
        a, b = pair
        first = _no_dense().check_same_unitary(a, b)
        second = _no_dense().check_same_unitary(a, b)
        assert first.status == second.status
        assert first.tier == second.tier


class TestDenseOracleSelfCheck:
    @given(pair=quantum_pairs(CLIFFORD_T_NAMES))
    def test_full_checker_matches_the_oracle_too(self, pair):
        # the production default (dense enabled) must agree with the
        # raw numpy comparison as well — no tier may flip the verdict
        a, b = pair
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert not verdict.skipped
        assert verdict.passed == circuits_equivalent(a, b)
