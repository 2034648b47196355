"""Unit tests for relative-phase Toffoli gates."""

import numpy as np
import pytest

from _dense_reference import allclose_up_to_global_phase

from repro.core.circuit import QuantumCircuit
from repro.core.unitary import circuit_unitary
from repro.mapping.relative_phase import rccx, rccx_dagger


class TestRccx:
    def test_t_count_is_four(self):
        assert rccx(0, 1, 2, 3).t_count() == 4

    def test_permutation_pattern_matches_ccx(self):
        """|RCCX| equals the CCX permutation matrix entrywise."""
        reference = np.abs(circuit_unitary(QuantumCircuit(3).ccx(0, 1, 2)))
        actual = np.abs(circuit_unitary(rccx(0, 1, 2, 3)))
        assert np.allclose(actual, reference, atol=1e-9)

    def test_diagonal_relative_phase(self):
        """RCCX . CCX^-1 must be diagonal (the defining property)."""
        ccx = circuit_unitary(QuantumCircuit(3).ccx(0, 1, 2))
        r = circuit_unitary(rccx(0, 1, 2, 3))
        residue = r @ ccx.conj().T
        off_diagonal = residue - np.diag(np.diag(residue))
        assert np.allclose(off_diagonal, 0, atol=1e-9)

    def test_not_exactly_ccx(self):
        """It must differ from CCX by a *nontrivial* phase — otherwise
        the 4-T construction would beat the proven 7-T lower bound."""
        ccx = circuit_unitary(QuantumCircuit(3).ccx(0, 1, 2))
        r = circuit_unitary(rccx(0, 1, 2, 3))
        assert not allclose_up_to_global_phase(r, ccx)

    def test_dagger_cancels_exactly(self):
        circ = rccx(0, 1, 2, 3)
        circ.compose(rccx_dagger(0, 1, 2, 3))
        assert allclose_up_to_global_phase(
            circuit_unitary(circ), np.eye(8)
        )

    def test_compute_uncompute_sandwich_acts_like_ccx(self):
        """RCCX a, (diagonal-commuting center), RCCX^dagger == CCX
        sandwich — the property the rptm mapping relies on."""
        # center: CNOT controlled on the RCCX target (diagonal on it? no
        # -- controlled on target is fine: phases on control commute)
        sandwich = rccx(0, 1, 2, 4)
        sandwich.cx(2, 3)
        sandwich.compose(rccx_dagger(0, 1, 2, 4))

        reference = QuantumCircuit(4).ccx(0, 1, 2)
        reference.cx(2, 3)
        reference.ccx(0, 1, 2)
        assert allclose_up_to_global_phase(
            circuit_unitary(sandwich), circuit_unitary(reference)
        )
