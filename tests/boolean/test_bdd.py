"""Unit tests for the ROBDD package."""

import random

import pytest

from repro.boolean.bdd import ONE, ZERO, Bdd
from repro.boolean.truth_table import TruthTable


class TestNodeConstruction:
    def test_reduction_rule(self):
        bdd = Bdd(2)
        # low == high collapses
        assert bdd.make_node(0, ONE, ONE) == ONE

    def test_unique_table_sharing(self):
        bdd = Bdd(2)
        a = bdd.make_node(0, ZERO, ONE)
        b = bdd.make_node(0, ZERO, ONE)
        assert a == b


class TestTruthTableBridge:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        table = TruthTable(n, rng.getrandbits(1 << n))
        bdd = Bdd(n)
        root = bdd.from_truth_table(table)
        assert bdd.to_truth_table(root) == table

    def test_terminal_cases(self):
        bdd = Bdd(3)
        assert bdd.from_truth_table(TruthTable(3)) == ZERO
        assert bdd.from_truth_table(TruthTable.constant(3, True)) == ONE

    def test_canonicity(self):
        """Equal functions build identical roots."""
        bdd = Bdd(4)
        table = TruthTable.inner_product(2)
        root_a = bdd.from_truth_table(table)
        # x0y0 ^ x1y1 with y = vars 2, 3
        root_b = bdd.from_truth_table(
            TruthTable.from_function(
                4, lambda x0, x1, y0, y1: (x0 and y0) ^ (x1 and y1)
            )
        )
        assert root_a == root_b


class TestQueries:
    def test_reachable_nodes_topological(self):
        bdd = Bdd(3)
        root = bdd.from_truth_table(
            TruthTable.from_function(3, lambda a, b, c: (a and b) or c)
        )
        order = bdd.reachable_nodes([root])
        seen = set()
        for node in order:
            data = bdd.node(node)
            for child in (data.low, data.high):
                if not bdd.is_terminal(child):
                    assert child in seen
            seen.add(node)
        assert order[-1] == root

    def test_count_nodes_shared(self):
        bdd = Bdd(2)
        x0 = bdd.make_node(0, ZERO, ONE)
        x1 = bdd.make_node(1, ZERO, ONE)
        assert len(bdd.reachable_nodes([x0, x1, x0])) == 2
