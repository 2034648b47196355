"""Unit tests for MCT gates and reversible circuits."""

import pickle
import random

import pytest

from _dense_reference import unitary_as_permutation

from repro.boolean.permutation import BitPermutation
from repro.core.unitary import circuit_unitary
from repro.synthesis.reversible import MctGate, ReversibleCircuit


class TestMctGate:
    def test_default_positive_polarity(self):
        gate = MctGate(2, (0, 1))
        assert gate.polarity == (True, True)

    def test_fires(self):
        gate = MctGate(2, (0, 1), (True, False))
        assert gate.apply(0b001) == 0b101  # c0=1, c1=0
        assert gate.apply(0b011) == 0b011

    def test_apply(self):
        gate = MctGate(2, (0, 1))
        assert gate.apply(0b011) == 0b111
        assert gate.apply(0b111) == 0b011
        assert gate.apply(0b001) == 0b001

    def test_not_gate(self):
        gate = MctGate(0)
        assert gate.apply(0) == 1
        assert gate.apply(1) == 0

    def test_target_in_controls_rejected(self):
        with pytest.raises(ValueError):
            MctGate(0, (0,))

    def test_polarity_length_mismatch(self):
        with pytest.raises(ValueError):
            MctGate(0, (1, 2), (True,))

    def test_masks_round_trip(self):
        gate = MctGate(3, (0, 2), (False, True))
        rebuilt = MctGate.from_masks(
            3, gate.control_mask(), gate.polarity_mask()
        )
        assert rebuilt == gate

    @pytest.mark.parametrize("seed", range(20))
    def test_stored_masks_match_controls_and_polarity(self, seed):
        rng = random.Random(seed)
        lines = rng.sample(range(8), rng.randint(1, 8))
        target, controls = lines[0], tuple(lines[1:])
        polarity = tuple(rng.random() < 0.5 for _ in controls)
        gate = MctGate(target, controls, polarity)
        control_mask = sum(1 << line for line in controls)
        polarity_mask = sum(
            1 << line for line, positive in zip(controls, polarity) if positive
        )
        assert gate.control_mask() == control_mask
        assert gate.polarity_mask() == polarity_mask
        for value in range(1 << 8):
            fires = all(
                bool(value >> line & 1) == positive
                for line, positive in zip(controls, polarity)
            )
            assert gate.apply(value) == value ^ (fires << target)

    def test_masks_take_no_part_in_the_value(self):
        gate = MctGate(3, (0, 2), (True, False))
        assert repr(gate) == (
            "MctGate(target=3, controls=(0, 2), polarity=(True, False))"
        )
        assert gate == MctGate(3, (0, 2), (True, False))
        assert hash(gate) == hash((3, (0, 2), (True, False)))
        data = pickle.dumps(gate)
        assert b"_masks" not in data
        restored = pickle.loads(data)
        assert restored == gate
        assert restored.control_mask() == 0b101
        assert restored.polarity_mask() == 0b001

    def test_remap(self):
        gate = MctGate(2, (0, 1), (True, False))
        mapped = gate.remap({0: 5, 1: 4, 2: 3})
        assert mapped.target == 3
        assert mapped.controls == (5, 4)
        assert mapped.polarity == (True, False)


class TestReversibleCircuit:
    def test_identity_permutation(self):
        assert ReversibleCircuit(3).permutation().cycles() == []

    def test_builders(self):
        circ = ReversibleCircuit(3)
        circ.x(0).cnot(0, 1).toffoli(0, 1, 2)
        assert len(circ) == 3
        assert circ.permutation()(0) == 0b111

    def test_line_range_check(self):
        with pytest.raises(ValueError):
            ReversibleCircuit(2).add_gate(2)

    def test_dagger_inverts(self):
        circ = ReversibleCircuit(3)
        circ.x(0).toffoli(0, 1, 2).cnot(0, 1)
        perm = circ.permutation()
        inv = circ.dagger().permutation()
        assert perm.compose(inv).cycles() == []

    def test_negative_controls_semantics(self):
        circ = ReversibleCircuit(2)
        circ.add_gate(1, (0,), (False,))  # flips line1 when line0 = 0
        perm = circ.permutation()
        assert perm(0b00) == 0b10
        assert perm(0b01) == 0b01

    def test_compose(self):
        a = ReversibleCircuit(2).x(0)
        b = ReversibleCircuit(2).cnot(0, 1)
        a.compose(b)
        assert a.permutation()(0) == 0b11

    def test_quantum_cost_table(self):
        circ = ReversibleCircuit(5)
        circ.x(0)
        assert circ.quantum_cost() == 1
        circ.toffoli(0, 1, 2)
        assert circ.quantum_cost() == 6
        circ.add_gate(4, (0, 1, 2))
        assert circ.quantum_cost() == 6 + (1 << 4) - 3


class TestQuantumConversion:
    def test_positive_mct_to_quantum(self):
        circ = ReversibleCircuit(3).toffoli(0, 1, 2)
        quantum = circ.to_quantum_circuit()
        assert [g.name for g in quantum] == ["ccx"]

    def test_negative_controls_wrapped_in_x(self):
        circ = ReversibleCircuit(2)
        circ.add_gate(1, (0,), (False,))
        quantum = circ.to_quantum_circuit()
        assert [g.name for g in quantum] == ["x", "cx", "x"]

    @pytest.mark.parametrize("seed", range(5))
    def test_quantum_conversion_preserves_permutation(self, seed):
        import random

        rng = random.Random(seed)
        circ = ReversibleCircuit(3)
        for _ in range(8):
            target = rng.randrange(3)
            others = [l for l in range(3) if l != target]
            k = rng.randint(0, 2)
            controls = tuple(rng.sample(others, k))
            polarity = tuple(rng.random() < 0.5 for _ in controls)
            circ.add_gate(target, controls, polarity)
        perm = unitary_as_permutation(
            circuit_unitary(circ.to_quantum_circuit())
        )
        assert perm == circ.permutation().image
