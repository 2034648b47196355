"""Unit tests for the hidden shift algorithm."""

import pytest

from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.spectral import find_shift_classically
from repro.boolean.truth_table import TruthTable
from repro.algorithms.hidden_shift import (
    deterministic_success_sweep,
    hidden_shift_circuit,
    phase_oracle_circuit,
    solve_hidden_shift,
)


@pytest.fixture
def paper_instance(paper_pi):
    """Fig. 7's instance: MM with pi = [0,2,3,5,7,1,4,6], h = 0, s = 5."""
    return HiddenShiftInstance(
        MaioranaMcFarland(paper_pi, TruthTable(3)), 5
    )


class TestCircuitConstruction:
    def test_structure_queries(self, paper_instance):
        built = hidden_shift_circuit(paper_instance)
        assert built.g_queries == 1
        assert built.dual_queries == 1

    def test_three_hadamard_layers(self, paper_instance):
        built = hidden_shift_circuit(paper_instance)
        h_count = built.circuit.count_ops()["h"]
        assert h_count >= 3 * paper_instance.num_vars

    def test_all_qubits_measured(self, paper_instance):
        built = hidden_shift_circuit(paper_instance)
        measured = {
            g.targets[0] for g in built.circuit.gates if g.is_measurement
        }
        assert measured == set(range(paper_instance.num_vars))

    def test_unknown_method_rejected(self, paper_instance):
        with pytest.raises(ValueError):
            hidden_shift_circuit(paper_instance, method="quantum-magic")


class TestSolving:
    @pytest.mark.parametrize("method", ["truth_table", "mm"])
    def test_paper_instance(self, paper_instance, method):
        result = solve_hidden_shift(paper_instance, method=method)
        assert result.success
        assert result.measured_shift == 5
        assert result.probability == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["truth_table", "mm"])
    def test_random_instances_deterministic(self, method):
        results = deterministic_success_sweep(
            2, trials=12, seed=7, method=method
        )
        assert all(r.success for r in results)
        assert all(
            r.probability == pytest.approx(1.0) for r in results
        )

    def test_nonzero_h_function(self):
        """The general MM case with h != 0 (beyond the paper's h = 0)."""
        mm = MaioranaMcFarland(
            BitPermutation([2, 0, 3, 1]), TruthTable(2, 0b1001)
        )
        for shift in (0, 3, 9, 15):
            instance = HiddenShiftInstance(mm, shift)
            for method in ("truth_table", "mm"):
                result = solve_hidden_shift(instance, method=method)
                assert result.success, (shift, method)

    def test_zero_shift(self):
        mm = MaioranaMcFarland.inner_product(2)
        result = solve_hidden_shift(HiddenShiftInstance(mm, 0))
        assert result.measured_shift == 0

    def test_agrees_with_classical_correlation(self):
        """Quantum result == classical exhaustive correlation."""
        instance = HiddenShiftInstance.random(2, seed=31)
        quantum = solve_hidden_shift(instance).measured_shift
        classical = find_shift_classically(
            instance.f_table(), instance.g_table()
        )
        assert quantum == classical == instance.shift


class TestPhaseOracleHelper:
    def test_wires_subset(self):
        table = TruthTable.from_function(2, lambda a, b: a and b)
        circ = phase_oracle_circuit(table, 4, wires=[1, 3])
        touched = {q for g in circ.gates for q in g.qubits}
        assert touched <= {1, 3}
