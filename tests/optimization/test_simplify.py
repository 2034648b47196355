"""Unit tests for circuit simplification (revsimp + gate cancellation)."""

import random

import pytest

from repro.boolean.permutation import BitPermutation
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.simplify import (
    cancel_adjacent_gates,
    cancel_with_groups,
    simplify_reversible,
)
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.synthesis.transformation import transformation_based_synthesis

from _dense_reference import circuits_equivalent
from _helpers import random_clifford_t_circuit


class TestReversibleSimplify:
    def test_adjacent_pair_cancels(self):
        circ = ReversibleCircuit(3)
        circ.toffoli(0, 1, 2).toffoli(0, 1, 2)
        assert len(simplify_reversible(circ)) == 0

    def test_pair_through_commuting_gate(self):
        circ = ReversibleCircuit(3)
        circ.toffoli(0, 1, 2)
        circ.cnot(0, 1)  # shares target with nothing of the toffoli? no:
        # cnot target 1 is a control of the toffoli -> does NOT commute
        circ.toffoli(0, 1, 2)
        # must NOT cancel through a non-commuting gate
        assert len(simplify_reversible(circ)) == 3

    def test_pair_through_disjoint_gate(self):
        circ = ReversibleCircuit(4)
        circ.toffoli(0, 1, 2)
        circ.x(3)
        circ.toffoli(0, 1, 2)
        simplified = simplify_reversible(circ)
        assert len(simplified) == 1
        assert simplified.gates[0] == MctGate(3)

    def test_same_target_gates_commute(self):
        circ = ReversibleCircuit(3)
        circ.cnot(0, 2)
        circ.cnot(1, 2)
        circ.cnot(0, 2)
        simplified = simplify_reversible(circ)
        assert len(simplified) == 1

    def test_not_absorption_flips_polarity(self):
        circ = ReversibleCircuit(2)
        circ.x(0)
        circ.cnot(0, 1)
        circ.x(0)
        simplified = simplify_reversible(circ)
        assert len(simplified) == 1
        gate = simplified.gates[0]
        assert gate.polarity == (False,)
        assert simplified.permutation() == circ.permutation()

    @pytest.mark.parametrize("seed", range(20))
    def test_semantics_preserved(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        circ = ReversibleCircuit(n)
        for _ in range(15):
            target = rng.randrange(n)
            others = [l for l in range(n) if l != target]
            k = rng.randint(0, min(2, len(others)))
            controls = tuple(rng.sample(others, k))
            polarity = tuple(rng.random() < 0.7 for _ in controls)
            circ.add_gate(target, controls, polarity)
        simplified = simplify_reversible(circ)
        assert simplified.permutation() == circ.permutation()
        assert len(simplified) <= len(circ)

    def test_synthesis_output_shrinks_or_stays(self):
        perm = BitPermutation.hidden_weighted_bit(4)
        circ = transformation_based_synthesis(perm)
        simplified = simplify_reversible(circ)
        assert simplified.permutation() == perm
        assert len(simplified) <= len(circ)


class TestQuantumCancellation:
    def test_self_inverse_pair(self):
        circ = QuantumCircuit(1).h(0).h(0)
        assert len(cancel_adjacent_gates(circ)) == 0

    def test_adjoint_pair(self):
        circ = QuantumCircuit(1).t(0).tdg(0)
        assert len(cancel_adjacent_gates(circ)) == 0

    def test_rotation_merge(self):
        circ = QuantumCircuit(1).rz(0.3, 0).rz(0.4, 0)
        out = cancel_adjacent_gates(circ)
        assert len(out) == 1
        assert out.gates[0].params[0] == pytest.approx(0.7)

    @pytest.mark.parametrize("cbits_on", ("first", "second"))
    @pytest.mark.parametrize("second", (0.2, -0.3))
    def test_rotation_with_cbits_neither_merges_nor_vanishes(
        self, cbits_on, second
    ):
        # like an inverse pair, a rotation carrying classical bits is
        # kept whole: merging would drop the bits
        first = Gate("rz", (0,), params=(0.3,),
                     cbits=(0,) if cbits_on == "first" else ())
        last = Gate("rz", (0,), params=(second,),
                    cbits=(0,) if cbits_on == "second" else ())
        circ = QuantumCircuit(1, 1)
        circ.append(first)
        circ.append(last)
        out = cancel_adjacent_gates(circ)
        assert out.gates == [first, last]
        assert cancel_with_groups(circ)[1] == ()

    def test_opposite_rotations_vanish(self):
        circ = QuantumCircuit(1).rz(0.3, 0).rz(-0.3, 0)
        assert len(cancel_adjacent_gates(circ)) == 0

    def test_cancellation_through_disjoint_gates(self):
        circ = QuantumCircuit(3).h(0).x(1).cx(1, 2).h(0)
        out = cancel_adjacent_gates(circ)
        assert [g.name for g in out] == ["x", "cx"]

    def test_no_cancellation_through_blocking_gate(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        out = cancel_adjacent_gates(circ)
        assert len(out) == 3

    def test_measurement_blocks(self):
        circ = QuantumCircuit(1, 1).h(0).measure(0, 0)
        circ.h(0)
        out = cancel_adjacent_gates(circ)
        assert len(out) == 3

    def test_cascading_cancellation(self):
        circ = QuantumCircuit(1).h(0).x(0).x(0).h(0)
        assert len(cancel_adjacent_gates(circ)) == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_unitary_preserved(self, seed):
        circ = random_clifford_t_circuit(3, 40, seed=seed)
        out = cancel_adjacent_gates(circ)
        assert circuits_equivalent(circ, out)
        assert len(out) <= len(circ)

    def test_identity_gates_dropped(self):
        circ = QuantumCircuit(1).i(0).h(0).i(0)
        assert len(cancel_adjacent_gates(circ)) == 1
