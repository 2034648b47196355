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

The routing check (tier ``swap``) is stricter than unitary
equivalence: it accepts only the router's form, a remapped gate list
with SWAPs between the gates.  So its differential demands one
direction: router outputs pass both it and the oracle, and it never
passes a routing (or a mutant of one) that the oracle rejects.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``) the run is
derandomized, so CI failures replay exactly.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import circuits_equivalent

from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import CouplingMap, route_circuit
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


#: 1- and 2-qubit unitary vocabulary the router places.
ROUTABLE_NAMES = CLIFFORD_T_NAMES + ("rz",)


@st.composite
def routings(draw):
    """Draw ``(original, routing, is_router_output)``.

    A 3–6 qubit unitary circuit is routed onto a line or a ring one
    wire wider or as wide; the routing is kept, or mutated the way a
    broken router would: a gate dropped, added or moved to other
    wires, a stray SWAP inside or at the end (the end one with the
    layout it makes, so it stays equivalent), a cancelling ``x`` pair
    (equivalent, but not the router's form), or a forged layout.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    original = QuantumCircuit(n)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        name = draw(st.sampled_from(ROUTABLE_NAMES))
        q1 = draw(st.integers(min_value=0, max_value=n - 1))
        if name in ("cx", "cz", "swap"):
            q2 = draw(st.integers(min_value=0, max_value=n - 2))
            getattr(original, name)(q1, q2 + (q2 >= q1))
        elif name == "rz":
            original.rz(draw(st.sampled_from((0.5, -1.25))), q1)
        else:
            getattr(original, name)(q1)
    width = n + draw(st.integers(min_value=0, max_value=1))
    topology = draw(st.sampled_from((CouplingMap.line, CouplingMap.ring)))
    routing = route_circuit(original, topology(width))
    kind = draw(st.sampled_from(
        ("none", "drop", "extra", "rewire", "swap", "end-swap", "pair",
         "layout")
    ))
    if kind == "none":
        return original, routing, True
    gates = list(routing.circuit.gates)
    position_of = list(routing.position_of)
    at = draw(st.integers(min_value=0, max_value=len(gates) - 1))
    a = draw(st.integers(min_value=0, max_value=width - 1))
    b = (a + draw(st.integers(min_value=1, max_value=width - 1))) % width
    if kind == "drop":
        del gates[at]
    elif kind == "extra":
        gates.insert(at, QuantumCircuit(width).x(a).gates[0])
    elif kind == "rewire":
        gates[at] = gates[at].remap({
            q: (q + b - a) % width for q in range(width)
        })
    elif kind == "swap":
        gates.insert(at, QuantumCircuit(width).swap(a, b).gates[0])
    elif kind == "pair":
        gates[at:at] = QuantumCircuit(width).x(a).x(a).gates
    elif kind == "end-swap":
        gates.append(QuantumCircuit(width).swap(a, b).gates[0])
        position_of = [
            b if p == a else a if p == b else p for p in position_of
        ]
    else:
        position_of[a], position_of[b] = position_of[b], position_of[a]
    circuit = QuantumCircuit(width)
    circuit.gates = gates
    mutant = dataclasses.replace(
        routing,
        circuit=circuit,
        final_layout=tuple(position_of[:n]),
        position_of=tuple(position_of),
    )
    return original, mutant, False


def _routing_oracle(original, routing):
    """Dense check: routed == original, then its wire permutation."""
    width = routing.circuit.num_qubits
    expected = QuantumCircuit(width)
    expected.gates = list(original.gates)
    # move content c to wire position_of[c], one swap per wire fixed
    content_at = list(range(width))
    for wire in range(width):
        content = routing.position_of.index(wire)
        current = content_at.index(content)
        if current != wire:
            expected.swap(wire, current)
            content_at[wire], content_at[current] = (
                content_at[current], content_at[wire]
            )
    return circuits_equivalent(expected, routing.circuit)


class TestSwapTierAgrees:
    @given(case=routings())
    @settings(max_examples=60)
    def test_never_passes_what_the_oracle_rejects(self, case):
        original, routing, is_router_output = case
        verdict = EquivalenceChecker().check_routing(original, routing)
        oracle = _routing_oracle(original, routing)
        assert verdict.tier == "swap"
        if is_router_output:
            assert verdict.passed and oracle
        if verdict.passed:
            assert oracle


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
