"""Unit tests for the full MCT-to-Clifford+T mapping pass."""

import random

import numpy as np
import pytest

from repro.boolean.permutation import BitPermutation
from _dense_reference import allclose_up_to_global_phase, evolve

from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.core.unitary import circuit_unitary
from repro.mapping.barenco import (
    MappingError,
    map_to_clifford_t,
    mcx_clean_ancilla,
)
from repro.mapping.clifford_t import ccx_clifford_t
from repro.synthesis.reversible import ReversibleCircuit
from repro.synthesis.transformation import transformation_based_synthesis


def assert_action_on_clean_ancillae(circuit, num_data, permutation):
    """Check the circuit maps |x>|0> to e^{i phi}|perm(x)>|0>."""
    unitary = circuit_unitary(circuit)
    for x in range(1 << num_data):
        column = unitary[:, x]
        idx = int(np.argmax(np.abs(column)))
        assert abs(abs(column[idx]) - 1.0) < 1e-9
        assert np.abs(column).sum() - abs(column[idx]) < 1e-9
        assert idx == permutation(x)


class TestCleanLadder:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("relative_phase", [True, False])
    def test_subspace_action(self, k, relative_phase):
        n = k + 1 + (k - 2)
        circ = mcx_clean_ancilla(
            list(range(k)), k, list(range(k + 1, n)), n,
            relative_phase=relative_phase,
        )
        perm = BitPermutation(
            [
                x ^ (1 << k) if (x & ((1 << k) - 1)) == (1 << k) - 1 else x
                for x in range(1 << (k + 1))
            ]
        )
        assert_action_on_clean_ancillae(circ, k + 1, perm)

    def test_relative_phase_t_savings(self):
        k = 5
        n = 2 * k - 1
        cheap = mcx_clean_ancilla(
            list(range(k)), k, list(range(k + 1, n)), n, relative_phase=True
        )
        full = mcx_clean_ancilla(
            list(range(k)), k, list(range(k + 1, n)), n, relative_phase=False
        )
        assert cheap.t_count() == 8 * (k - 2) + 7
        assert full.t_count() == 14 * (k - 2) + 7

    def test_needs_enough_ancillae(self):
        with pytest.raises(ValueError):
            mcx_clean_ancilla([0, 1, 2, 3], 4, [5], 7)

    def test_minimum_controls(self):
        with pytest.raises(ValueError):
            mcx_clean_ancilla([0, 1], 2, [3], 4)


class TestFullMappingPass:
    @pytest.mark.parametrize("seed", range(8))
    def test_synthesized_circuits_map_correctly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        perm = BitPermutation.random(n, seed=seed * 3)
        reversible = transformation_based_synthesis(perm)
        mapped = map_to_clifford_t(reversible)
        assert mapped.is_clifford_t()
        assert_action_on_clean_ancillae(mapped, n, perm)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["mcx", "mcz"])
    def test_widens_by_clean_ancillae_for_the_widest_gate(self, kind, k):
        # k - 2 clean lines after the data lines, even where idle data
        # lines could have been borrowed; each comes back to |0>
        width = k + 3
        source = QuantumCircuit(width)
        getattr(source, kind)(list(range(k)), k)
        source.cx(0, k + 1)
        mapped = map_to_clifford_t(source)
        assert mapped.num_qubits == width + max(0, k - 2)
        assert mapped.is_clifford_t()
        ancillae = set(range(width, mapped.num_qubits))
        touched = {q for gate in mapped.gates for q in gate.qubits}
        assert ancillae <= touched
        assert touched.isdisjoint({k + 2})  # the idle line stays idle
        rng = np.random.default_rng(k)
        data = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
        data /= np.linalg.norm(data)
        state = np.zeros(1 << mapped.num_qubits, dtype=complex)
        state[:1 << width] = data  # ancillae are the high bits
        out = evolve(state, mapped.gates)
        expected = evolve(data, source.gates)
        assert np.linalg.norm(out[1 << width:]) < 1e-9
        assert allclose_up_to_global_phase(out[:1 << width], expected)

    def test_mcz_lowered_via_h_conjugation(self):
        qc = QuantumCircuit(4).mcz([0, 1, 2], 3)
        mapped = map_to_clifford_t(qc)
        assert mapped.is_clifford_t()
        reference = circuit_unitary(QuantumCircuit(4).mcz([0, 1, 2], 3))
        # compare on the data subspace (clean ancillae added)
        full = circuit_unitary(mapped)
        for x in range(16):
            col = full[:, x]
            idx = int(np.argmax(np.abs(col)))
            assert idx == x  # mcz is diagonal
        # diagonal signs must match
        diag = np.array([full[x, x] for x in range(16)])
        ref_diag = np.diag(reference)
        assert allclose_up_to_global_phase(
            np.diag(diag), np.diag(ref_diag)
        )

    def test_plain_gates_pass_through(self):
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure(0, 0)
        mapped = map_to_clifford_t(qc)
        assert [g.name for g in mapped] == ["h", "cx", "measure"]

    def test_rotation_gate_rejected(self):
        qc = QuantumCircuit(1).rx(0.5, 0)
        with pytest.raises(MappingError):
            map_to_clifford_t(qc)

    def test_relative_phase_reduces_t_count(self):
        perm = BitPermutation.hidden_weighted_bit(4)
        reversible = transformation_based_synthesis(perm)
        cheap = map_to_clifford_t(reversible, relative_phase=True)
        full = map_to_clifford_t(reversible, relative_phase=False)
        assert cheap.t_count() < full.t_count()


def _compose_builders(source, relative_phase):
    """The lowering of ``source`` built gate by gate from the builders.

    The reference for the placed templates: each MCT gate composes its
    builder directly on its concrete wires, with clean ancillae after
    the data lines.
    """
    width = source.num_qubits
    max_k = max(len(g.controls) for g in source.gates)
    total = width + max(0, max_k - 2)
    out = QuantumCircuit(total)
    for gate in source.gates:
        controls, target = list(gate.controls), gate.targets[0]
        k = len(controls)
        if gate.name.endswith("z"):
            out.h(target)
        if k == 2:
            out.compose(ccx_clifford_t(*controls, target, total))
        else:
            out.compose(mcx_clean_ancilla(
                controls, target, list(range(width, width + k - 2)), total,
                relative_phase=relative_phase,
            ))
        if gate.name.endswith("z"):
            out.h(target)
    return out


class TestPlacedTemplates:
    """``rptm`` places cached templates; the gates must not change."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["mcx", "mcz"])
    @pytest.mark.parametrize("relative_phase", [True, False])
    def test_equals_builders_on_concrete_wires(self, k, kind, relative_phase):
        rng = random.Random(f"{k}:{kind}:True:{relative_phase}")
        width = 2 * k + 2
        for _ in range(4):
            source = QuantumCircuit(width)
            for _ in range(3):
                wires = rng.sample(range(width), k + 1)
                getattr(source, kind)(wires[:k], wires[k])
            mapped = map_to_clifford_t(source, relative_phase=relative_phase)
            expected = _compose_builders(source, relative_phase)
            assert mapped.num_qubits == expected.num_qubits
            assert mapped.gates == expected.gates

    def test_mixed_shapes_in_one_circuit(self):
        rng = random.Random(7)
        width = 10
        source = QuantumCircuit(width)
        for _ in range(40):
            k = rng.randint(2, 6)
            wires = rng.sample(range(width), k + 1)
            getattr(source, rng.choice(["mcx", "mcz"]))(wires[:k], wires[k])
        for relative_phase in (True, False):
            first = map_to_clifford_t(source, relative_phase=relative_phase)
            again = map_to_clifford_t(source, relative_phase=relative_phase)
            expected = _compose_builders(source, relative_phase)
            assert first.gates == again.gates == expected.gates

    def test_out_of_range_wire_still_refused(self):
        from repro.core.gates import Gate

        source = QuantumCircuit(5)
        source.gates.append(Gate("mcx", (7,), (0, 1, 2)))
        with pytest.raises(ValueError, match="outside"):
            map_to_clifford_t(source)


@pytest.mark.parametrize("name", ["mcx", "mcz"])
@pytest.mark.parametrize("controls", [(), (1,), (2,)])
def test_short_mct_gates_lower_directly(name, controls):
    """An mcx/mcz Gate with 0 or 1 controls lowers to x/cx or z/h-cx-h
    (as the builders and the cz branch do), keeping every clean line."""
    source = QuantumCircuit(3)
    source.append(Gate(name, (0,), controls))
    mapped = map_to_clifford_t(source)
    assert mapped.num_qubits == 3 and mapped.is_clifford_t()
    expected = {
        ("mcx", 0): ["x"], ("mcz", 0): ["z"],
        ("mcx", 1): ["cx"], ("mcz", 1): ["h", "cx", "h"],
    }[name, len(controls)]
    assert [g.name for g in mapped] == expected
    for x in range(8):
        basis = np.zeros(8, dtype=complex)
        basis[x] = 1.0
        assert np.allclose(
            evolve(basis, mapped.gates), evolve(basis, source.gates),
            atol=1e-12,
        )
