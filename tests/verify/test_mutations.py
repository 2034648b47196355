"""Mutation-testing harness for the tiered equivalence checker.

Each mutant wraps a real library pass, runs it for real, then corrupts
its output the way a buggy pass would: a dropped gate, a swapped
control/target, a stray X, a phase flip, an off-by-one rewiring, and
for a routed measured circuit two measurements' classical bits swapped
or every measurement dropped.  A verifying pipeline must fail the
mutated pass, and the error must name both the pass and the tier that
caught it — the point of the harness is that every tier claiming
coverage of a pass kind catches every mutation in its corpus.

Corpus boundaries are part of the contract and tested too: the
permutation tier checks classical cascades, where a phase flip does
not exist, and the mapped-circuit obligation explicitly allows a
per-input phase ``e^{i phi(x)}`` — so a Z on a data wire of the
Clifford+T mapping legitimately passes and is asserted to.
"""

import dataclasses
import re

import pytest

from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import CouplingMap
from repro.pipeline import (
    CancelPass,
    FlowState,
    GeneratePass,
    MapToCliffordTPass,
    Pipeline,
    RoutePass,
    SimplifyPass,
    SynthesisPass,
    TparPass,
    VerificationError,
)
from repro.synthesis.reversible import MctGate
from repro.verify import EquivalenceChecker


# ----------------------------------------------------------------------
# the mutation corpus
# ----------------------------------------------------------------------
def q_dropped_gate(circuit):
    """Silently lose the last gate (truncated rewrite)."""
    out = circuit.copy()
    assert out.gates, "fixture produced an empty circuit"
    out.gates = out.gates[:-1]
    return out


def q_swapped_control_target(circuit):
    """Exchange control and target of the first controlled gate."""
    out = circuit.copy()
    for i, gate in enumerate(out.gates):
        if len(gate.controls) == 1 and len(gate.targets) == 1:
            out.gates[i] = dataclasses.replace(
                gate, targets=gate.controls, controls=gate.targets
            )
            return out
    raise AssertionError("fixture has no controlled gate to corrupt")


def q_extra_x(circuit):
    """Append a stray X (bit flip on wire 0)."""
    return circuit.copy().x(0)


def q_phase_flip(circuit):
    """Append a stray Z (relative phase flip on wire 0)."""
    return circuit.copy().z(0)


def q_off_by_one_rewiring(circuit):
    """Shift every wire of the last gate by one (indexing bug)."""
    out = circuit.copy()
    gate = out.gates[-1]
    shift = {q: (q + 1) % out.num_qubits for q in range(out.num_qubits)}
    out.gates[-1] = gate.remap(shift)
    return out


def r_dropped_gate(cascade):
    """Silently lose the last MCT gate."""
    out = cascade.copy()
    assert out.gates, "fixture produced an empty cascade"
    out.gates = out.gates[:-1]
    return out


def r_swapped_control_target(cascade):
    """Exchange target and first control of the first controlled MCT."""
    out = cascade.copy()
    for i, gate in enumerate(out.gates):
        if gate.controls:
            out.gates[i] = MctGate(
                gate.controls[0],
                (gate.target,) + gate.controls[1:],
                gate.polarity,
            )
            return out
    raise AssertionError("fixture has no controlled MCT gate to corrupt")


def r_extra_x(cascade):
    """Append a stray NOT on line 0."""
    return cascade.copy().x(0)


def r_off_by_one_rewiring(cascade):
    """Move the last gate's target to the next free line."""
    out = cascade.copy()
    gate = out.gates[-1]
    target = (gate.target + 1) % out.num_lines
    while target in gate.controls:
        target = (target + 1) % out.num_lines
    out.gates[-1] = MctGate(target, gate.controls, gate.polarity)
    return out


#: (mutation name, quantum-circuit mutator, reversible-cascade mutator);
#: the phase flip has no reversible analog — cascades are classical.
MUTATIONS = {
    "dropped-gate": (q_dropped_gate, r_dropped_gate),
    "swapped-control-target": (q_swapped_control_target,
                               r_swapped_control_target),
    "extra-x": (q_extra_x, r_extra_x),
    "phase-flip": (q_phase_flip, None),
    "off-by-one-rewiring": (q_off_by_one_rewiring, r_off_by_one_rewiring),
}

QUANTUM_MUTATIONS = sorted(MUTATIONS)
REVERSIBLE_MUTATIONS = sorted(
    name for name, (_, r) in MUTATIONS.items() if r is not None
)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def mutant(pass_cls, field, mutate, *args, **kwargs):
    """Build a pass that runs ``pass_cls`` for real, then corrupts it.

    The wrapper is a distinct subclass (distinct cache identity), runs
    the genuine pass, and applies ``mutate`` to the named store field
    — exactly the shape of a buggy pass implementation.
    """

    class Mutant(pass_cls):
        def run(self, state):
            out = super().run(state)
            if field == "routing":
                mutated = mutate(out.routing.circuit)
                out.routing = dataclasses.replace(
                    out.routing, circuit=mutated
                )
                out.quantum = mutated
            else:
                setattr(out, field, mutate(getattr(out, field)))
            return out

    Mutant.__name__ = f"Mutant{pass_cls.__name__}"
    return Mutant(*args, **kwargs)


def assert_caught(pass_, state, tier):
    """Run under verification and demand a rejection naming pass+tier."""
    pipeline = Pipeline(verify="auto", cache=None)
    pattern = rf"pass '{pass_.name}'.*tier {tier}"
    with pytest.raises(VerificationError, match=pattern) as info:
        pipeline.apply(pass_, state)
    # the message must name BOTH coordinates for actionable triage
    message = str(info.value)
    assert re.search(rf"'{pass_.name}'", message)
    assert re.search(rf"tier {tier}", message)


@pytest.fixture(scope="module")
def hwb_state():
    """hwb(4) specification plus its transformation-based cascade."""
    state = GeneratePass("hwb", 4).run(FlowState())
    return SynthesisPass("tbs").run(state)


# ----------------------------------------------------------------------
# permutation tier: reversible-level passes
# ----------------------------------------------------------------------
class TestPermutationTierCatches:
    @pytest.mark.parametrize("mutation", REVERSIBLE_MUTATIONS)
    def test_simplify_mutations(self, hwb_state, mutation):
        mutate = MUTATIONS[mutation][1]
        assert_caught(
            mutant(SimplifyPass, "reversible", mutate),
            hwb_state,
            "permutation",
        )

    @pytest.mark.parametrize("mutation", REVERSIBLE_MUTATIONS)
    def test_synthesis_mutations(self, hwb_state, mutation):
        mutate = MUTATIONS[mutation][1]
        assert_caught(
            mutant(SynthesisPass, "reversible", mutate, "tbs"),
            FlowState(function=hwb_state.function),
            "permutation",
        )


# ----------------------------------------------------------------------
# stabilizer tier: Clifford-only rewrites
# ----------------------------------------------------------------------
class TestStabilizerTierCatches:
    @pytest.mark.parametrize("mutation", QUANTUM_MUTATIONS)
    def test_cancel_mutations(self, mutation):
        # every mutation keeps the circuit Clifford, so the cheapest
        # sound tier is the stabilizer tableau — including the phase
        # flip, which moves conjugated Pauli generators
        circuit = (
            QuantumCircuit(3)
            .h(0).h(0).cx(0, 1).s(2).sdg(2).cx(1, 2).h(1)
        )
        mutate = MUTATIONS[mutation][0]
        assert_caught(
            mutant(CancelPass, "quantum", mutate),
            FlowState(quantum=circuit),
            "stabilizer",
        )


# ----------------------------------------------------------------------
# dense tier: Clifford+T rewrites at small width
# ----------------------------------------------------------------------
class TestDenseTierCatches:
    @pytest.mark.parametrize("mutation", QUANTUM_MUTATIONS)
    def test_tpar_mutations(self, mutation):
        circuit = (
            QuantumCircuit(3)
            .h(0).t(0).t(0).cx(0, 1).t(1).h(2).t(2).cx(1, 2)
        )
        mutate = MUTATIONS[mutation][0]
        assert_caught(
            mutant(TparPass, "quantum", mutate),
            FlowState(quantum=circuit),
            "dense",
        )

    @pytest.mark.parametrize(
        "mutation",
        sorted(set(QUANTUM_MUTATIONS) - {"phase-flip"}),
    )
    def test_mapping_mutations(self, hwb_state, mutation):
        mutate = MUTATIONS[mutation][0]
        assert_caught(
            mutant(MapToCliffordTPass, "quantum", mutate),
            hwb_state,
            "dense",
        )

    def test_mapping_tolerates_per_input_phase(self, hwb_state):
        # the mapped-circuit obligation is |x>|0> -> e^{i phi(x)}|P(x)>|0>,
        # so a Z on a data wire is NOT a bug — the check must accept it
        # (the phase-flip mutation belongs to the unitary tiers above)
        _, record = Pipeline(verify="auto", cache=None).apply(
            mutant(MapToCliffordTPass, "quantum", q_phase_flip), hwb_state
        )
        assert record.verification.passed
        assert record.verification.tier == "dense"


# ----------------------------------------------------------------------
# swap tier: routing, measurements included
# ----------------------------------------------------------------------
def m_cbits_swapped(circuit):
    """Exchange the classical bits of the first two measurements."""
    out = circuit.copy()
    first, second = [
        i for i, gate in enumerate(out.gates) if gate.is_measurement
    ][:2]
    a, b = out.gates[first], out.gates[second]
    out.gates[first] = dataclasses.replace(a, cbits=b.cbits)
    out.gates[second] = dataclasses.replace(b, cbits=a.cbits)
    return out


def m_dropped(circuit):
    """Lose every measurement."""
    out = circuit.copy()
    out.gates = [gate for gate in out.gates if not gate.is_measurement]
    return out


#: Mutations of a measured circuit's readout.
MEASURE_MUTATIONS = {
    "measure-cbits-swapped": m_cbits_swapped,
    "measure-dropped": m_dropped,
}


class TestSwapTierCatches:
    @pytest.mark.parametrize("mutation", QUANTUM_MUTATIONS)
    def test_route_mutations(self, mutation):
        circuit = QuantumCircuit(3).h(0).cx(0, 2).t(1).cx(1, 2)
        mutate = MUTATIONS[mutation][0]
        assert_caught(
            mutant(RoutePass, "routing", mutate, CouplingMap.line(3)),
            FlowState(quantum=circuit),
            "swap",
        )

    @pytest.mark.parametrize("mutation", sorted(MEASURE_MUTATIONS))
    def test_route_measurement_mutations(self, mutation):
        circuit = QuantumCircuit(3, 3).h(0).cx(0, 2).x(1)
        for q in range(3):
            circuit.measure(q, q)
        assert_caught(
            mutant(
                RoutePass, "routing", MEASURE_MUTATIONS[mutation],
                CouplingMap.line(3),
            ),
            FlowState(quantum=circuit),
            "swap",
        )


# ----------------------------------------------------------------------
# probes tier: widths past every exact tier
# ----------------------------------------------------------------------
class TestProbesTierCatches:
    def _wide_pair(self, n=12):
        # T.T = S keeps the pair equivalent while a non-Clifford gate
        # on every qubit blocks the stabilizer and (capped) dense tiers
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        for q in range(n):
            a.h(q)
            a.t(q)
            a.t(q)
            b.h(q)
            b.s(q)
        return a, b

    @pytest.mark.parametrize("mutation", QUANTUM_MUTATIONS)
    def test_probe_rejections(self, mutation):
        a, b = self._wide_pair()
        if mutation == "swapped-control-target":
            # give both sides a controlled gate, swapped on one side
            a.cx(1, 0)
            b.cx(0, 1)
        else:
            b = MUTATIONS[mutation][0](b)
        checker = dataclasses.replace(
            EquivalenceChecker(), max_dense_qubits=4
        )
        verdict = checker.check_same_unitary(a, b)
        assert verdict.failed
        assert verdict.tier == "probes"
        assert "probe" in verdict.detail

    def test_probe_baseline_accepts_the_unmutated_pair(self):
        # guards the corpus itself: rejections above stem from the
        # mutation, not from a broken fixture pair
        a, b = self._wide_pair()
        checker = dataclasses.replace(
            EquivalenceChecker(), max_dense_qubits=4
        )
        verdict = checker.check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "probes"
