"""Unit tests for the tpar optimization pass."""

import random

import pytest

from repro.boolean.permutation import BitPermutation
from repro.core.circuit import QuantumCircuit
from repro.core.statistics import circuit_statistics
from repro.mapping.barenco import map_to_clifford_t
from repro.optimization.simplify import cancel_adjacent_gates
from repro.optimization.tpar import (
    region_statistics,
    t_depth_estimate,
    tpar_optimize,
)
from repro.synthesis.transformation import transformation_based_synthesis

from _dense_reference import circuits_equivalent
from _helpers import random_clifford_t_circuit


class TestTparOptimize:
    def test_regions_split_at_hadamard(self):
        circ = QuantumCircuit(1).t(0).h(0).t(0)
        out = tpar_optimize(circ)
        # H prevents merging: both T gates stay
        assert out.t_count() == 2

    def test_merge_within_region(self):
        circ = QuantumCircuit(2)
        circ.t(0).cx(0, 1).t(1).cx(0, 1).t(0)
        # t(0) twice on mask x0 -> merges to S; t on x0^x1 stays
        out = tpar_optimize(circ)
        assert out.t_count() == 1
        assert circuits_equivalent(circ, out)

    def test_measurements_pass_through(self):
        circ = QuantumCircuit(1, 1).t(0).measure(0, 0)
        out = tpar_optimize(circ)
        assert out.has_measurements()

    @pytest.mark.parametrize("seed", range(15))
    def test_unitary_preserved_on_random_circuits(self, seed):
        circ = random_clifford_t_circuit(3, 50, seed=seed + 100)
        out = tpar_optimize(circ)
        assert circuits_equivalent(circ, out)
        assert out.t_count() <= circ.t_count()

    @pytest.mark.parametrize("seed", range(6))
    def test_mapped_synthesis_circuits(self, seed):
        """End-to-end: tbs -> rptm -> tpar preserves semantics."""
        perm = BitPermutation.random(3, seed=seed)
        mapped = map_to_clifford_t(transformation_based_synthesis(perm))
        out = tpar_optimize(cancel_adjacent_gates(mapped))
        assert circuits_equivalent(mapped, out)
        assert out.t_count() <= mapped.t_count()

    def test_hwb_pipeline_t_reduction(self):
        """The Eq. (5) pipeline must show a strict T-count win."""
        perm = BitPermutation.hidden_weighted_bit(4)
        mapped = map_to_clifford_t(transformation_based_synthesis(perm))
        before = mapped.t_count()
        out = cancel_adjacent_gates(tpar_optimize(cancel_adjacent_gates(mapped)))
        assert out.t_count() < before


class TestDiagnostics:
    def test_region_statistics_shape(self):
        circ = QuantumCircuit(2).t(0).h(0).t(1).cx(0, 1).t(1)
        stats = region_statistics(circ)
        assert len(stats) == 2
        for before, after, layers in stats:
            assert after <= before or before == 0
            assert layers <= after or after == 0

    def test_t_depth_estimate_le_naive(self):
        circ = QuantumCircuit(2).t(0).t(1).cx(0, 1).t(1)
        estimate = t_depth_estimate(circ)
        assert estimate <= circuit_statistics(circ).t_depth + 1
        assert estimate >= 1
