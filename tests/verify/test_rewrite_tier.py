"""The rewrite tier: ``cancel`` checked group by group against its certificate.

``cancel`` hands the checker the groups of input gates it fused
(:func:`repro.optimization.simplify.cancel_with_groups`).  The checker
validates the claims on both gate lists, checks each distinct group
densely once, and falls through to the whole-circuit tiers when
anything does not validate.  These tests hold it to three promises:

* on the pass's real output it agrees with the whole-circuit check —
  the Fig. 10 benchmark pool, the Eq. (5) core specs, and random
  circuits with pairs, rotation chains, gates on no qubits, barriers
  and measurements — and its detail shows the rewrite tier ran;
* a forged certificate falls through and never passes a wrong circuit;
* ``cancel`` on measurement circuits verifies instead of being skipped.

Randomized cases use the Hypothesis profile of ``conftest.py``
(``HYPOTHESIS_PROFILE=ci`` derandomizes them).
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.simplify import (
    cancel_adjacent_gates,
    cancel_with_groups,
)
from repro.pipeline import passes
from repro.verify import EquivalenceChecker, checker, tiers
from test_block_tier import EQ5_CORE, fig10_pool

CHECKER = EquivalenceChecker()

#: the detail a verdict of the rewrite tier carries
REWRITE_DETAIL = re.compile(r"^rewrite: \d+ groups, \d+ distinct$")

#: the gates nothing is moved across
FENCES = ("barrier", "measure")


def rewrite_ran(verdict):
    return bool(REWRITE_DETAIL.match(verdict.detail or ""))


def cancel_inputs(spec, target):
    """Every circuit a verify-off compile hands to ``cancel``."""
    seen = []

    def recording(circuit):
        seen.append(circuit)
        return cancel_adjacent_gates(circuit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passes, "cancel_adjacent_gates", recording)
        repro.compile(spec, target=target, cache=None, verify="off")
    return seen


def assert_agree_through_groups(circuit):
    """The whole-circuit and rewrite-tier verdicts of one cancel agree."""
    out = cancel_adjacent_gates(circuit)
    whole = CHECKER.check_same_unitary(circuit, out)
    rewrite = CHECKER.check_same_unitary(
        circuit, out, groups=cancel_with_groups(circuit)[1]
    )
    assert whole.status == rewrite.status == "passed"
    if whole.tier == "syntactic":
        assert rewrite.tier == "syntactic"
    else:
        assert rewrite.tier == "dense"
        assert rewrite_ran(rewrite), rewrite.detail
        assert not rewrite_ran(whole)
    return rewrite


def circuit_of(width, gates):
    circuit = QuantumCircuit(width, 2)
    for gate in gates:
        circuit.append(gate)
    return circuit


def g(name, *qubits, params=(), controls=(), cbits=()):
    return Gate(name, qubits, controls, params, cbits)


# ----------------------------------------------------------------------
# differential against the whole-circuit check
# ----------------------------------------------------------------------
class TestAgreesWithWholeCircuit:
    def test_fig10_pool(self):
        ran = 0
        for spec in fig10_pool():
            (circuit,) = cancel_inputs(list(spec), "qsharp")
            ran += rewrite_ran(assert_agree_through_groups(circuit))
        assert ran >= 40  # most of the pool has something to cancel

    @pytest.mark.parametrize("spec", EQ5_CORE, ids=str)
    def test_eq5_core_cancel_inputs(self, spec):
        circuits = [
            circuit
            for target in ("qsharp", "clifford_t")
            for circuit in cancel_inputs(spec, target)
            if circuit.num_qubits <= 10
        ]
        assert circuits
        for circuit in circuits:
            assert_agree_through_groups(circuit)

    def test_pass_verdict_through_the_pipeline(self):
        result = repro.compile(
            list(fig10_pool()[0]), target="qsharp", cache=None,
            verify="auto",
        )
        (record,) = [r for r in result.records if r.name == "cancel"]
        assert record.verification.status == "passed"
        assert record.verification.tier == "dense"
        assert rewrite_ran(record.verification)

    def test_memo_keys_are_the_relabelled_groups(self):
        # every member and the reference of a validated group sit on
        # exactly the reference's qubits, so a group's gates on wires
        # 0..k-1 are what relabelling it onto those wires gives
        memo = checker._local_block_failure
        keys = []

        def recording(*key):
            keys.append(key)
            return memo(*key)

        expected = []
        for spec in fig10_pool():
            (circuit,) = cancel_inputs(list(spec), "qsharp")
            out = cancel_adjacent_gates(circuit)
            groups = cancel_with_groups(circuit)[1]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(checker, "_local_block_failure", recording)
                CHECKER.check_same_unitary(circuit, out, groups=groups)
            n = circuit.num_qubits
            for members, reference in tiers.rewrite_groups(
                circuit.gates, out.gates, groups
            ):
                own = reference.qubits
                expected.append((
                    tiers.relabel_block(members, own, n)[0],
                    tiers.relabel_block((reference,), own, n)[0][0],
                    0, "extended", CHECKER.atol,
                ))
        assert len(expected) > 1000
        assert keys == expected


# ----------------------------------------------------------------------
# random circuits, against a measurement-by-measurement dense oracle
# ----------------------------------------------------------------------
#: angles whose sums cancel, so chains merge and some sum to zero
ANGLES = (math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, 0.3, -0.3)


@st.composite
def circuits(draw):
    """A collision-heavy circuit on 1-4 wires.

    Inverse pairs, ``rz``/``p``/``crz`` chains, gates on no qubits
    (from names that never pair with each other), barriers and
    measurements.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    wire = st.integers(min_value=0, max_value=n - 1)
    circuit = QuantumCircuit(n, 2)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(
            ["one", "one", "rot", "rot", "two", "two", "none", "fence"]
        ))
        a = draw(wire)
        if kind == "one":
            name = draw(st.sampled_from(
                ["h", "x", "z", "s", "sdg", "t", "tdg", "id"]
            ))
            circuit.append(Gate(name, (a,)))
        elif kind == "rot":
            name = draw(st.sampled_from(["rz", "p"]))
            angle = draw(st.sampled_from(ANGLES))
            circuit.append(Gate(name, (a,), params=(angle,)))
        elif kind == "two" and n > 1:
            b = draw(wire.filter(lambda q: q != a))
            name = draw(st.sampled_from(["cx", "cz", "crz"]))
            params = (draw(st.sampled_from(ANGLES)),) if name == "crz" else ()
            circuit.append(Gate(name, (b,), (a,), params))
        elif kind == "none":
            circuit.append(Gate(draw(st.sampled_from(["t", "s", "sx"])), ()))
        elif kind == "fence":
            if draw(st.booleans()):
                circuit.barrier(a)
            else:
                circuit.measure(a, draw(st.sampled_from([0, 1])))
    return circuit


def _segments(circuit):
    """The circuit's measurements, and its unitary gates between them.

    Barriers are dropped (they are no-ops); a gate on no qubits goes
    onto an extra wire, where it commutes with every other gate, as
    ``cancel`` treats it.
    """
    n = circuit.num_qubits
    measurements, segments = [], [[]]
    for gate in circuit.gates:
        if gate.name == "measure":
            measurements.append(gate)
            segments.append([])
        elif gate.name == "barrier":
            continue
        elif gate.qubits:
            segments[-1].append(gate)
        else:
            segments[-1].append(Gate(gate.name, (n,), params=gate.params))
    return measurements, segments


def oracle_agrees(before, after):
    """Same measurements, and the same unitary up to phase between them."""
    measured_before, segments_before = _segments(before)
    measured_after, segments_after = _segments(after)
    if measured_before != measured_after:
        return False
    width = before.num_qubits + 1
    return all(
        CHECKER.check_same_unitary(
            circuit_of(width, ours), circuit_of(width, theirs)
        ).passed
        for ours, theirs in zip(segments_before, segments_after)
    )


def _mutant(gates, groups, mutation, where):
    """The output with one merged angle moved, or one gate replaced,
    dropped, or added."""
    gates = list(gates)
    if not gates:
        return [Gate("h", (0,))]
    i = where % len(gates)
    gate = gates[i]
    merged = [slot for _, slot in groups if slot is not None]
    if mutation == "angle" and merged:
        # keeps the certificate's shape: only the group check can object
        j = merged[where % len(merged)]
        other = gates[j]
        gates[j] = Gate(other.name, other.targets, other.controls,
                        (other.params[0] + math.pi / 4,), other.cbits)
    elif mutation == "replace" and gate.qubits and gate.name not in FENCES:
        gates[i] = Gate("h" if gate.name != "h" else "s", (gate.qubits[-1],))
    elif mutation == "drop":
        del gates[i]
    else:
        gates.insert(i, Gate("t", (gate.qubits[-1] if gate.qubits else 0,)))
    return gates


@given(
    circuit=circuits(),
    mutation=st.sampled_from(["angle", "replace", "drop", "insert"]),
    where=st.integers(min_value=0),
)
def test_random_circuits_and_their_mutants(circuit, mutation, where):
    out = cancel_adjacent_gates(circuit)
    groups = cancel_with_groups(circuit)[1]
    assert oracle_agrees(circuit, out)
    verdict = CHECKER.check_same_unitary(circuit, out, groups=groups)
    assert verdict.status == "passed"
    if verdict.tier != "syntactic":
        assert rewrite_ran(verdict), verdict.detail
    # the real certificate on a mutated output passes only a mutant
    # the oracle finds equivalent
    mutant = circuit_of(
        circuit.num_qubits, _mutant(out.gates, groups, mutation, where)
    )
    verdict = CHECKER.check_same_unitary(circuit, mutant, groups=groups)
    if verdict.passed:
        assert oracle_agrees(circuit, mutant)


def test_groups_are_the_fused_input_gates():
    circuit = QuantumCircuit(2, 1)
    circuit.h(0).h(0).t(1).rz(0.3, 0).cx(0, 1).h(1).h(1).cx(0, 1)
    circuit.rz(0.2, 0).rz(-0.5, 0).tdg(1).measure(0, 0).p(0.1, 1).p(0.2, 1)
    assert cancel_with_groups(circuit)[1] == (
        ((0, 1), None), ((2, 10), None), ((3, 8, 9), None),
        ((4, 7), None), ((5, 6), None), ((12, 13), 1),
    )
    out = cancel_adjacent_gates(circuit)
    assert [gate.name for gate in out.gates] == ["measure", "p"]
    verdict = CHECKER.check_same_unitary(
        circuit, out, groups=cancel_with_groups(circuit)[1]
    )
    # the two h pairs relabel to the same local group
    assert verdict.detail == "rewrite: 6 groups, 5 distinct"


# ----------------------------------------------------------------------
# certificates are checked, never trusted
# ----------------------------------------------------------------------
#: name -> (width, input gates, output gates, forged certificate), each
#: output equivalent to its input
FORGED_ON_CORRECT = {
    # x z x z = -I, but the pairs cross
    "crossing pairs": (
        1, [g("x", 0), g("z", 0), g("x", 0), g("z", 0)], [],
        [((0, 2), None), ((1, 3), None)],
    ),
    # z x z = -x, but the x inside the gap is not removed
    "gate left in a gap": (
        1, [g("z", 0), g("x", 0), g("z", 0)], [g("x", 0)],
        [((0, 2), None)],
    ),
    # (cx(0,1) cx(1,0))^3 = I, but paired across different qubits
    "cx(0,1) with cx(1,0)": (
        2, [g("cx", 1, controls=(0,)), g("cx", 0, controls=(1,))] * 3, [],
        [((0, 1), None), ((2, 3), None), ((4, 5), None)],
    ),
    # s s = z, but claimed to vanish
    "s with s": (
        1, [g("s", 0), g("s", 0)], [g("z", 0)], [((0, 1), None)],
    ),
    "duplicated index": (
        1, [g("h", 0), g("h", 0), g("h", 0)], [g("h", 0)],
        [((0, 1), None), ((1, 2), None)],
    ),
    "group with cbits": (
        1, [g("x", 0, cbits=(0,)), g("x", 0, cbits=(0,))], [],
        [((0, 1), None)],
    ),
    "slot past the output": (
        1, [g("rz", 0, params=(0.3,)), g("rz", 0, params=(0.2,))],
        [g("rz", 0, params=(0.5,))], [((0, 1), 1)],
    ),
}

#: the same, each output wrong; a checker trusting the claim would pass
FORGED_ON_WRONG = {
    # each pair multiplies to I, but x h x h is no phase
    "crossing pairs": (
        1, [g("x", 0), g("h", 0), g("x", 0), g("h", 0)], [],
        [((0, 2), None), ((1, 3), None)],
    ),
    "gate left in a gap": (
        1, [g("h", 0), g("t", 0), g("h", 0)], [g("t", 0)],
        [((0, 2), None)],
    ),
    "cx(0,1) with cx(1,0)": (
        2, [g("cx", 1, controls=(0,)), g("cx", 0, controls=(1,))], [],
        [((0, 1), None)],
    ),
    "s with s": (
        1, [g("s", 0), g("s", 0)], [], [((0, 1), None)],
    ),
    "merged angle off by pi/4": (
        1, [g("rz", 0, params=(0.3,)), g("rz", 0, params=(0.2,))],
        [g("rz", 0, params=(0.5 + math.pi / 4,))], [((0, 1), 0)],
    ),
    # each group is h h = I, but h h h is h
    "duplicated index": (
        1, [g("h", 0), g("h", 0), g("h", 0)], [],
        [((0, 1), None), ((1, 2), None)],
    ),
    "group with cbits": (
        1, [g("x", 0, cbits=(0,)), g("z", 0, cbits=(0,))], [],
        [((0, 1), None)],
    ),
    # the nested pair is fine, the outer one is not
    "wrong outer group": (
        2, [g("s", 0), g("cx", 1, controls=(0,)), g("cx", 1, controls=(0,)),
            g("s", 0)], [],
        [((0, 3), None), ((1, 2), None)],
    ),
}


class TestForgedCertificates:
    @pytest.mark.parametrize("forgery", sorted(FORGED_ON_CORRECT))
    def test_falls_through_on_a_correct_circuit(self, forgery):
        width, before, after, groups = FORGED_ON_CORRECT[forgery]
        verdict = CHECKER.check_same_unitary(
            circuit_of(width, before), circuit_of(width, after), groups=groups
        )
        assert verdict.status == "passed"
        assert not rewrite_ran(verdict)

    @pytest.mark.parametrize("forgery", sorted(FORGED_ON_WRONG))
    def test_never_passes_a_wrong_circuit(self, forgery):
        width, before, after, groups = FORGED_ON_WRONG[forgery]
        verdict = CHECKER.check_same_unitary(
            circuit_of(width, before), circuit_of(width, after), groups=groups
        )
        assert verdict.status == "failed"

    def test_a_group_is_checked_whole_not_by_one_gate(self):
        # both groups start with rz(0.3) and fuse into rz(0.5): the
        # verdict of the first must not stand for the second
        right = [g("rz", 0, params=(0.3,)), g("rz", 0, params=(0.2,))]
        wrong = [g("rz", 0, params=(0.3,)), g("rz", 0, params=(0.7,))]
        merged = circuit_of(1, [g("rz", 0, params=(0.5,))])
        for before, status in ((right, "passed"), (wrong, "failed")):
            verdict = CHECKER.check_same_unitary(
                circuit_of(1, before), merged, groups=[((0, 1), 0)]
            )
            assert verdict.status == status

    def test_nested_groups_validate(self):
        before = [g("t", 0), g("h", 0), g("x", 1), g("cx", 1, controls=(0,)),
                  g("cx", 1, controls=(0,)), g("h", 0), g("tdg", 0)]
        after = [g("x", 1)]
        verdict = CHECKER.check_same_unitary(
            circuit_of(2, before), circuit_of(2, after),
            groups=[((0, 6), None), ((1, 5), None), ((3, 4), None)],
        )
        assert rewrite_ran(verdict)
        # a surviving group may not sit in another group's gap
        before[3:5] = [g("rz", 1, params=(0.1,)), g("rz", 1, params=(0.2,))]
        before[2] = g("cx", 1, controls=(0,))
        verdict = CHECKER.check_same_unitary(
            circuit_of(2, before), circuit_of(2, after),
            groups=[((0, 6), None), ((1, 5), None), ((3, 4), 1)],
        )
        assert not rewrite_ran(verdict)


# ----------------------------------------------------------------------
# fences and measurement circuits
# ----------------------------------------------------------------------
class TestFences:
    def test_cancel_on_a_measured_circuit_is_verified(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).h(0).t(1).tdg(1).cx(0, 1).measure(0, 0).measure(1, 1)
        result = repro.compile(
            circuit, target="ibm_qe5", cache=None, verify="auto"
        )
        (record,) = [r for r in result.records if r.name == "cancel"]
        assert record.verification.status == "passed"
        assert rewrite_ran(record.verification)

    def test_group_across_a_measurement_falls_through(self):
        # h(0) commutes with measuring wire 1, but nothing crosses a fence
        before = circuit_of(2, [g("h", 0), g("measure", 1, cbits=(0,)),
                                g("h", 0)])
        after = circuit_of(2, [g("measure", 1, cbits=(0,))])
        verdict = CHECKER.check_same_unitary(
            before, after, groups=[((0, 2), None)]
        )
        assert (verdict.status, verdict.tier) == ("skipped", "none")

    def test_group_across_a_barrier_falls_through(self):
        before = circuit_of(2, [g("h", 0), g("barrier", 1), g("h", 0)])
        after = circuit_of(2, [g("barrier", 1)])
        verdict = CHECKER.check_same_unitary(
            before, after, groups=[((0, 2), None)]
        )
        assert verdict.status == "passed"
        assert not rewrite_ran(verdict)
        wrong = circuit_of(2, [g("h", 0), g("barrier", 1), g("t", 0)])
        verdict = CHECKER.check_same_unitary(
            wrong, after, groups=[((0, 2), None)]
        )
        assert verdict.status == "failed"

    def test_group_on_no_qubits_falls_through(self):
        before = circuit_of(1, [g("x"), g("h", 0), g("x")])
        after = cancel_adjacent_gates(before)
        groups = cancel_with_groups(before)[1]
        assert groups == (((0, 2), None),)
        verdict = CHECKER.check_same_unitary(before, after, groups=groups)
        assert (verdict.status, verdict.tier) == ("skipped", "none")

    def test_group_wider_than_the_dense_limit_falls_through(self):
        narrow = EquivalenceChecker(max_dense_qubits=1)
        before = circuit_of(2, [g("cx", 1, controls=(0,))] * 2)
        verdict = narrow.check_same_unitary(
            before, circuit_of(2, []), groups=[((0, 1), None)]
        )
        assert verdict.status == "passed"
        assert not rewrite_ran(verdict)
