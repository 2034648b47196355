"""Unit tests for exact (BFS) synthesis."""

import pytest

from repro.boolean.permutation import BitPermutation
from repro.synthesis.exact import (
    all_mct_gates,
    exact_synthesis,
)
from repro.synthesis.transformation import transformation_based_synthesis


class TestGateEnumeration:
    def test_counts(self):
        # n lines: n targets x 3^(n-1) control configurations
        assert len(all_mct_gates(1)) == 1
        assert len(all_mct_gates(2)) == 2 * 3
        assert len(all_mct_gates(3)) == 3 * 9

    def test_gates_distinct(self):
        gates = all_mct_gates(3)
        assert len(set(gates)) == len(gates)


class TestExactSynthesis:
    def test_identity_is_zero_gates(self):
        circ = exact_synthesis(BitPermutation.identity(2))
        assert len(circ) == 0

    def test_single_gate_functions_found_at_depth_one(self):
        # on 3 lines this includes negatively-controlled MCTs
        for lines in (2, 3):
            for gate in all_mct_gates(lines):
                image = [gate.apply(x) for x in range(1 << lines)]
                circ = exact_synthesis(BitPermutation(image))
                assert len(circ) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_correct_and_minimal(self, seed):
        perm = BitPermutation.random(3, seed=seed)
        circ = exact_synthesis(perm)
        assert circ is not None
        assert circ.permutation() == perm
        # no shorter circuit exists: compare against heuristic result
        heuristic = transformation_based_synthesis(perm)
        assert len(circ) <= len(heuristic)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            exact_synthesis(BitPermutation.identity(4))

    def test_swap_needs_three_cnots(self):
        # swap of two lines = 3 CNOTs, and no 2-gate solution exists
        perm = BitPermutation([0, 2, 1, 3])
        assert len(exact_synthesis(perm)) == 3
