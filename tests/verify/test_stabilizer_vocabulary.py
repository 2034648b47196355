"""The stabilizer tableau's gate vocabulary, pinned gate by gate.

The verifier's stabilizer tier is only sound if every gate the
tableau accepts is applied *correctly* — a wrong derived-gate
decomposition would silently pass buggy Clifford rewrites.  These
tests round-trip every accepted gate against the dense statevector
simulator: after any Clifford prelude, the tableau's stabilizer
generators must stabilize the dense state (``sign * P |psi> = |psi>``
for every generator), which determines the state up to global phase.

Unsupported gates must raise :class:`StabilizerError` and must leave
the tableau untouched, so a failed dispatch can never corrupt a
verification in progress.
"""

import numpy as np
import pytest

from _tableau_reference import stabilizer_strings
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.simulator.stabilizer import StabilizerError, StabilizerState
from repro.simulator.statevector import Statevector
from repro.verify.tiers import TABLEAU_GATES

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Clifford preludes driving the tableau into entangled states first,
#: so a wrong gate action cannot hide behind |0..0>'s symmetries.
_PRELUDES = (
    (),
    (Gate("h", (0,)), Gate("cx", (1,), (0,)), Gate("s", (1,))),
    (
        Gate("h", (2,)),
        Gate("cz", (2,), (0,)),
        Gate("sdg", (0,)),
        Gate("h", (1,)),
        Gate("cx", (2,), (1,)),
    ),
)


def _vocab_gate(name, n=3):
    """One concrete Gate exercising ``name`` on a 3-qubit register."""
    if name in ("cx", "cy", "cz"):
        return Gate(name, (2,), (0,))
    if name == "swap":
        return Gate(name, (0, 2))
    return Gate(name, (1,))


def _pauli_operator(string, n):
    """Dense operator for a ``+XZY``-style stabilizer string."""
    sign = 1.0 if string[0] == "+" else -1.0
    # qubit 0 is the least-significant index bit, so qubit j's Pauli
    # enters the Kronecker product last
    op = np.array([[1.0]], dtype=complex)
    for j in reversed(range(n)):
        op = np.kron(op, _PAULI[string[1 + j]])
    return sign * op


def _assert_tableau_matches_dense(tableau, dense):
    """The tableau's generators must stabilize the dense state."""
    psi = dense.data
    for string in stabilizer_strings(tableau):
        op = _pauli_operator(string, tableau.num_qubits)
        assert np.allclose(op @ psi, psi, atol=1e-9), (
            f"dense state is not stabilized by {string}"
        )


class TestAcceptedVocabulary:
    @pytest.mark.parametrize("name", sorted(TABLEAU_GATES))
    @pytest.mark.parametrize("prelude", range(len(_PRELUDES)))
    def test_gate_round_trips_against_dense_simulation(
        self, name, prelude
    ):
        n = 3
        tableau = StabilizerState(n)
        circuit = QuantumCircuit(n)
        for gate in _PRELUDES[prelude] + (_vocab_gate(name, n),):
            tableau.apply_gate(gate)
            circuit.append(gate)
        dense = Statevector(n)
        dense.evolve(circuit)
        _assert_tableau_matches_dense(tableau, dense)

    def test_vocabulary_matches_the_verifier_tier(self):
        # the checker's stabilizer tier promises exactly this set; a
        # gate the tableau cannot dispatch must not be claimed
        state = StabilizerState(2)
        for name in sorted(TABLEAU_GATES):
            state.apply_gate(_vocab_gate(name, 2) if name not in (
                "cx", "cy", "cz", "swap"
            ) else Gate(name, (1,), (0,)) if name != "swap" else Gate(
                "swap", (0, 1)
            ))

    def test_noops_leave_the_tableau_alone(self):
        state = StabilizerState(2)
        state.apply_gate(Gate("h", (0,)))
        snapshot = (state.x.copy(), state.z.copy(), state.r.copy())
        state.apply_gate(Gate("id", (0,)))
        state.apply_gate(Gate("barrier", ()))
        assert np.array_equal(state.x, snapshot[0])
        assert np.array_equal(state.z, snapshot[1])
        assert np.array_equal(state.r, snapshot[2])


class TestRejectedVocabulary:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("t", (0,)),
            Gate("tdg", (1,)),
            Gate("rz", (0,), (), (0.25,)),
            Gate("rx", (2,), (), (1.5,)),
            Gate("ry", (1,), (), (0.75,)),
            Gate("p", (0,), (), (0.5,)),
            Gate("ccx", (2,), (0, 1)),
            Gate("cswap", (1, 2), (0,)),
        ],
        ids=lambda gate: gate.name,
    )
    def test_unsupported_gate_raises_without_corrupting_state(self, gate):
        state = StabilizerState(3)
        # drive away from the initial tableau first
        state.apply_gate(Gate("h", (0,)))
        state.apply_gate(Gate("cx", (1,), (0,)))
        snapshot = (state.x.copy(), state.z.copy(), state.r.copy())
        with pytest.raises(StabilizerError, match="not Clifford"):
            state.apply_gate(gate)
        assert np.array_equal(state.x, snapshot[0]), "tableau corrupted"
        assert np.array_equal(state.z, snapshot[1]), "tableau corrupted"
        assert np.array_equal(state.r, snapshot[2]), "tableau corrupted"

    def test_measurement_is_not_a_tableau_gate(self):
        state = StabilizerState(1)
        with pytest.raises(StabilizerError):
            state.apply_gate(Gate("measure", (0,), (), (), (0,)))
