"""Unit tests for BDD-based hierarchical synthesis."""

import random

import pytest

from repro.boolean.bdd import Bdd
from repro.boolean.truth_table import TruthTable
from repro.synthesis.bdd_based import bdd_synthesis, verify_bdd_synthesis


class TestBddSynthesis:
    def test_simple_and(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        result = bdd_synthesis(table)
        assert verify_bdd_synthesis(result, table)
        assert result.num_inputs == 2
        assert result.num_outputs == 1

    def test_ancilla_count_equals_bdd_nodes(self):
        table = TruthTable.inner_product(2)
        bdd = Bdd(4)
        nodes = len(bdd.reachable_nodes([bdd.from_truth_table(table)]))
        result = bdd_synthesis(table)
        assert result.num_ancillae == nodes
        assert result.total_lines == 4 + 1 + nodes

    def test_ancillae_restored(self):
        """Bennett compute-copy-uncompute leaves ancillae clean —
        checked on all inputs by the verifier."""
        rng = random.Random(0)
        for _ in range(8):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            result = bdd_synthesis(table)
            assert verify_bdd_synthesis(result, table)

    def test_constant_functions(self):
        for value in (False, True):
            table = TruthTable.constant(3, value)
            result = bdd_synthesis(table)
            assert verify_bdd_synthesis(result, table)
            assert result.num_ancillae == 0

    def test_projection_function(self):
        table = TruthTable.projection(3, 1)
        result = bdd_synthesis(table)
        assert verify_bdd_synthesis(result, table)

    def test_multi_output_sharing(self):
        """Shared BDD nodes across outputs are computed once."""
        t1 = TruthTable.from_function(3, lambda a, b, c: a and b)
        t2 = TruthTable.from_function(3, lambda a, b, c: (a and b) or c)
        result = bdd_synthesis([t1, t2])
        assert verify_bdd_synthesis(result, [t1, t2])
        separate = (
            bdd_synthesis(t1).num_ancillae + bdd_synthesis(t2).num_ancillae
        )
        assert result.num_ancillae <= separate

    @pytest.mark.parametrize("seed", range(10))
    def test_random_multi_output(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        m = rng.randint(1, 3)
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(m)]
        result = bdd_synthesis(tables)
        assert verify_bdd_synthesis(result, tables)

    def test_gate_count_linear_in_nodes(self):
        """Each node contributes at most 2 compute + 2 uncompute MCTs."""
        table = TruthTable.inner_product(3)
        result = bdd_synthesis(table)
        bound = 4 * result.bdd_nodes + result.num_outputs
        assert len(result.circuit) <= bound
