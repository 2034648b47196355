"""Unit tests for template-based MCT optimization."""

import random

import pytest

from repro.boolean.permutation import BitPermutation
from repro.optimization.templates import (
    _merge_pair,
    template_optimize,
)
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.synthesis.transformation import transformation_based_synthesis


class TestMergePair:
    def test_control_merge_rule(self):
        # T({c0, c1}, t) . T({c0}, t) = T({c0, !c1}, t)
        wide = MctGate(2, (0, 1), (True, True))
        narrow = MctGate(2, (0,), (True,))
        merged = _merge_pair(wide, narrow)
        assert merged == MctGate(2, (0, 1), (True, False))

    def test_control_merge_rule_symmetric(self):
        wide = MctGate(2, (0, 1), (True, True))
        narrow = MctGate(2, (0,), (True,))
        assert _merge_pair(narrow, wide) == _merge_pair(wide, narrow)

    def test_polarity_rule(self):
        a = MctGate(2, (0, 1), (True, True))
        b = MctGate(2, (0, 1), (True, False))
        merged = _merge_pair(a, b)
        assert merged == MctGate(2, (0,), (True,))

    def test_polarity_rule_to_not(self):
        a = MctGate(1, (0,), (True,))
        b = MctGate(1, (0,), (False,))
        assert _merge_pair(a, b) == MctGate(1)

    def test_different_targets_never_merge(self):
        assert _merge_pair(MctGate(0, (1,)), MctGate(1, (0,))) is None

    def test_mismatched_shared_polarity_rejected(self):
        wide = MctGate(2, (0, 1), (False, True))
        narrow = MctGate(2, (0,), (True,))
        assert _merge_pair(wide, narrow) is None

    def test_two_control_difference_rejected(self):
        wide = MctGate(3, (0, 1, 2))
        narrow = MctGate(3, (0,))
        assert _merge_pair(wide, narrow) is None

    @pytest.mark.parametrize("seed", range(15))
    def test_merge_preserves_semantics(self, seed):
        """Whenever a merge fires, the merged gate equals the pair."""
        rng = random.Random(seed)
        n = 4
        target = rng.randrange(n)
        others = [l for l in range(n) if l != target]
        ca = tuple(rng.sample(others, rng.randint(0, 3)))
        cb = tuple(rng.sample(others, rng.randint(0, 3)))
        a = MctGate(target, ca, tuple(rng.random() < 0.5 for _ in ca))
        b = MctGate(target, cb, tuple(rng.random() < 0.5 for _ in cb))
        merged = _merge_pair(a, b)
        if merged is None:
            return
        for x in range(1 << n):
            assert merged.apply(x) == a.apply(b.apply(x))


class TestTemplateOptimize:
    def test_merges_adjacent_pair(self):
        circ = ReversibleCircuit(3)
        circ.add_gate(2, (0, 1))
        circ.add_gate(2, (0,))
        out = template_optimize(circ)
        assert len(out) == 1
        assert out.permutation() == circ.permutation()

    def test_merge_through_commuting_gate(self):
        circ = ReversibleCircuit(4)
        circ.add_gate(2, (0, 1))
        circ.x(3)  # disjoint
        circ.add_gate(2, (0,))
        out = template_optimize(circ)
        assert len(out) == 2
        assert out.permutation() == circ.permutation()

    def test_cascaded_rules(self):
        # two merges then a cancellation
        circ = ReversibleCircuit(3)
        circ.add_gate(2, (0, 1), (True, True))
        circ.add_gate(2, (0, 1), (True, False))  # -> T({0})
        circ.add_gate(2, (0,))                   # cancels
        out = template_optimize(circ)
        assert len(out) == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_circuits_semantics(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        circ = ReversibleCircuit(n)
        for _ in range(18):
            target = rng.randrange(n)
            others = [l for l in range(n) if l != target]
            k = rng.randint(0, min(2, len(others)))
            controls = tuple(rng.sample(others, k))
            circ.add_gate(
                target, controls,
                tuple(rng.random() < 0.6 for _ in controls),
            )
        out = template_optimize(circ)
        assert out.permutation() == circ.permutation()
        assert len(out) <= len(circ)

    @pytest.mark.parametrize("seed", range(8))
    def test_on_synthesis_output(self, seed):
        perm = BitPermutation.random(4, seed=seed)
        circ = transformation_based_synthesis(perm)
        out = template_optimize(circ)
        assert out.permutation() == perm
        assert len(out) <= len(circ)
