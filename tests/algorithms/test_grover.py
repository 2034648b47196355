"""Unit tests for Grover search."""

import pytest

from repro.algorithms.grover import (
    diffusion_circuit,
    grover_circuit,
    optimal_iterations,
    solve_grover,
)
from repro.boolean.truth_table import TruthTable
from repro.core.unitary import circuit_unitary

import numpy as np


class TestDiffusion:
    def test_unitary_form(self):
        """Diffusion = 2|s><s| - I up to global phase."""
        n = 3
        unitary = circuit_unitary(diffusion_circuit(n))
        dim = 1 << n
        s = np.full((dim, 1), 1 / np.sqrt(dim))
        expected = 2 * (s @ s.T) - np.eye(dim)
        ratio = unitary[0, 0] / expected[0, 0]
        assert np.allclose(unitary, ratio * expected, atol=1e-9)


class TestIterations:
    def test_quarter_pi_scaling(self):
        # floor(pi/4 sqrt(2^n / M))
        assert optimal_iterations(4, 1) == 3
        assert optimal_iterations(2, 1) == 1
        assert optimal_iterations(8, 1) == 12

    def test_multiple_solutions_fewer_iterations(self):
        assert optimal_iterations(6, 4) <= optimal_iterations(6, 1)

    def test_zero_solutions_rejected(self):
        with pytest.raises(ValueError):
            optimal_iterations(3, 0)


class TestSolve:
    def test_unique_marked_item(self):
        result = solve_grover(
            lambda a, b, c, d: a and b and c and d, seed=1
        )
        assert result.measured == 0b1111
        assert result.is_solution
        assert result.success_probability > 0.9

    def test_predicate_with_negations(self):
        result = solve_grover(
            lambda a, b, c: a and not b and not c, seed=1
        )
        assert result.measured == 0b001
        assert result.success_probability > 0.9

    def test_truth_table_input(self):
        table = TruthTable(3)
        table.bits |= 1 << 6
        result = solve_grover(table, seed=1)
        assert result.measured == 6

    def test_multiple_solutions(self):
        table = TruthTable.from_function(4, lambda a, b, c, d: a and b and c)
        result = solve_grover(table, seed=0)
        assert result.is_solution
        assert result.success_probability > 0.8

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError):
            solve_grover(TruthTable(3))

    def test_circuit_iteration_structure(self):
        table = TruthTable(3)
        table.bits |= 1
        circ = grover_circuit(table, iterations=2)
        # two diffusion blocks -> at least 2 ccz/mcz gates
        ops = circ.count_ops()
        assert ops.get("ccz", 0) + ops.get("mcz", 0) >= 2
