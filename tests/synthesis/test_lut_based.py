"""Unit tests for LUT-based hierarchical synthesis (LHRS)."""

import random

import pytest

from repro.boolean.truth_table import TruthTable
from repro.synthesis.embedding import verify_bennett_circuit
from repro.synthesis.lut_based import (
    AncillaBudgetError,
    lut_synthesis,
)


class TestBennettStrategy:
    def test_simple_function(self):
        table = TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d)
        )
        result = lut_synthesis(table, k=3, strategy="bennett")
        assert verify_bennett_circuit(result.circuit, table)
        assert result.strategy == "bennett"

    def test_ancillae_equal_luts(self):
        table = TruthTable.inner_product(3)
        result = lut_synthesis(table, k=3, strategy="bennett")
        assert result.num_ancillae == result.num_luts

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_functions(self, k, seed):
        rng = random.Random(seed * 31 + k)
        n = rng.randint(2, 5)
        table = TruthTable(n, rng.getrandbits(1 << n))
        result = lut_synthesis(table, k=k, strategy="bennett")
        assert verify_bennett_circuit(result.circuit, table)


class TestEagerStrategy:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_functions(self, k, seed):
        rng = random.Random(seed * 13 + k)
        n = rng.randint(2, 5)
        m = rng.randint(1, 2)
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(m)]
        result = lut_synthesis(tables, k=k, strategy="eager")
        assert verify_bennett_circuit(result.circuit, tables)

    def test_eager_saves_ancillae_on_deep_networks(self):
        """A multi-level single-output function: the output LUT lands
        on the output line, so eager needs fewer ancillae."""
        table = TruthTable.inner_product(3)
        bennett = lut_synthesis(table, k=2, strategy="bennett")
        eager = lut_synthesis(table, k=2, strategy="eager")
        assert eager.num_ancillae < bennett.num_ancillae
        assert verify_bennett_circuit(eager.circuit, table)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            lut_synthesis(TruthTable(2, 0b0110), strategy="magic")


class TestAncillaBudget:
    def test_generous_budget_accepted(self):
        table = TruthTable.inner_product(2)
        result = lut_synthesis(table, k=3, ancilla_budget=100)
        assert verify_bennett_circuit(result.circuit, table)

    def test_tight_budget_falls_back_to_eager(self):
        table = TruthTable.inner_product(3)
        bennett_cost = lut_synthesis(table, k=2).num_ancillae
        eager_cost = lut_synthesis(table, k=2, strategy="eager").num_ancillae
        assert eager_cost < bennett_cost
        result = lut_synthesis(
            table, k=2, strategy="bennett", ancilla_budget=eager_cost
        )
        assert result.strategy == "eager"
        assert verify_bennett_circuit(result.circuit, table)

    def test_impossible_budget_raises(self):
        table = TruthTable.inner_product(3)
        with pytest.raises(AncillaBudgetError):
            lut_synthesis(table, k=2, ancilla_budget=0)


class TestQubitGateTradeoff:
    def test_larger_k_fewer_ancillae(self):
        """Coarser LUTs = fewer intermediate values = fewer ancillae
        (but bigger single-target gates) — the Sec. V trade-off."""
        table = TruthTable.inner_product(3)
        fine = lut_synthesis(table, k=2)
        coarse = lut_synthesis(table, k=5)
        assert coarse.num_ancillae <= fine.num_ancillae
