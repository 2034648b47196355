"""Unit tests for phase-polynomial analysis and folding.

The analysis and region-fold tests run on the object-per-region
reference (``tests/_tpar_reference.py``), the oracle the package's
one-pass fold is differenced against.
"""

import math
import random

import pytest

from _dense_reference import circuits_equivalent
from _tpar_reference import PhaseRegion, fold_region

from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.phase_polynomial import (
    greedy_t_layers,
    is_region_gate,
)


def region_of(circuit):
    return PhaseRegion(circuit.num_qubits, list(circuit.gates))


class TestPhaseRegionAnalysis:
    def test_single_t(self):
        circ = QuantumCircuit(1).t(0)
        region = region_of(circ)
        assert region.t_count() == 1
        terms = region.nontrivial_terms()
        assert len(terms) == 1
        assert terms[0].mask == 0b1
        assert terms[0].steps == 1

    def test_t_t_merges_to_s(self):
        circ = QuantumCircuit(1).t(0).t(0)
        region = region_of(circ)
        assert region.t_count() == 0  # steps=2 is S, no T needed
        assert region.nontrivial_terms()[0].steps == 2

    def test_t_tdg_cancels(self):
        circ = QuantumCircuit(1).t(0).tdg(0)
        region = region_of(circ)
        assert region.nontrivial_terms() == []

    def test_parity_tracking_through_cnot(self):
        # T on (x0 ^ x1) via CNOT conjugation
        circ = QuantumCircuit(2).cx(0, 1).t(1).cx(0, 1)
        region = region_of(circ)
        terms = region.nontrivial_terms()
        assert len(terms) == 1
        assert terms[0].mask == 0b11

    def test_same_parity_different_wires_merge(self):
        # t(q1) after cx gives parity x0^x1; building the same parity
        # again later merges
        circ = QuantumCircuit(2)
        circ.cx(0, 1).t(1).cx(0, 1)
        circ.cx(0, 1).t(1).cx(0, 1)
        region = region_of(circ)
        assert region.t_count() == 0  # merged into S on x0^x1
        assert region.nontrivial_terms()[0].steps == 2

    def test_x_flips_phase_sign(self):
        # X t X = phase on NOT(x): records as -1 steps (= 7 mod 8)
        circ = QuantumCircuit(1).x(0).t(0).x(0)
        region = region_of(circ)
        terms = region.nontrivial_terms()
        assert terms[0].steps == 7

    def test_swap_tracking(self):
        circ = QuantumCircuit(2).swap(0, 1).t(0)
        region = region_of(circ)
        assert region.nontrivial_terms()[0].mask == 0b10

    def test_rz_accumulates_angle(self):
        circ = QuantumCircuit(1).rz(0.3, 0).rz(0.2, 0)
        region = region_of(circ)
        assert region.nontrivial_terms()[0].angle == pytest.approx(0.5)

    def test_region_gate_predicate(self):
        assert is_region_gate(Gate("cx", (1,), (0,)))
        assert is_region_gate(Gate("t", (0,)))
        assert is_region_gate(Gate("rz", (0,), params=(0.1,)))
        assert not is_region_gate(Gate("h", (0,)))
        assert not is_region_gate(Gate("ccx", (2,), (0, 1)))


class TestFoldRegion:
    def check_fold(self, circ):
        folded_gates = fold_region(circ.num_qubits, list(circ.gates))
        folded = QuantumCircuit(circ.num_qubits)
        folded.extend(folded_gates)
        assert circuits_equivalent(circ, folded), "folding broke unitary"
        return folded

    def test_merge_reduces_t(self):
        circ = QuantumCircuit(2)
        circ.cx(0, 1).t(1).cx(0, 1)
        circ.cx(0, 1).t(1).cx(0, 1)
        folded = self.check_fold(circ)
        assert folded.t_count() == 0
        assert folded.count_ops().get("s", 0) == 1

    def test_fold_preserves_linear_part(self):
        circ = QuantumCircuit(3)
        circ.cx(0, 1).cx(1, 2).t(2).x(0).cx(0, 2)
        folded = self.check_fold(circ)
        assert folded.count_ops()["cx"] == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_random_regions_fold_correctly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        circ = QuantumCircuit(n)
        for _ in range(25):
            r = rng.random()
            if r < 0.4 and n >= 2:
                a, b = rng.sample(range(n), 2)
                circ.cx(a, b)
            elif r < 0.5:
                circ.x(rng.randrange(n))
            elif r < 0.6 and n >= 2:
                a, b = rng.sample(range(n), 2)
                circ.swap(a, b)
            elif r < 0.9:
                getattr(circ, rng.choice(["t", "tdg", "s", "sdg", "z"]))(
                    rng.randrange(n)
                )
            else:
                circ.rz(rng.uniform(-1, 1), rng.randrange(n))
        folded = self.check_fold(circ)
        assert folded.t_count() <= circ.t_count()

    def test_steps_emitted_canonically(self):
        # 3 T gates on the same wire = S then T
        circ = QuantumCircuit(1).t(0).t(0).t(0)
        folded = self.check_fold(circ)
        names = sorted(g.name for g in folded)
        assert names == ["s", "t"]

    def test_negative_parity_emission(self):
        circ = QuantumCircuit(1).x(0).t(0).x(0)
        folded = self.check_fold(circ)
        # phase stays attached to the negated interval; unitary equal
        assert folded.t_count() <= 1


class TestGreedyTLayers:
    def test_independent_masks_share_layer(self):
        layers = greedy_t_layers([0b01, 0b10, 0b11], 2)
        # 0b11 depends on the first two: needs its own layer
        assert len(layers) == 2

    def test_duplicate_masks_need_new_layers(self):
        layers = greedy_t_layers([0b01, 0b01, 0b01], 2)
        assert len(layers) == 3

    def test_layer_count_bounded_by_terms(self):
        masks = [0b001, 0b010, 0b100, 0b111, 0b011]
        layers = greedy_t_layers(masks, 3)
        assert 1 <= len(layers) <= len(masks)
        assert sum(len(l) for l in layers) == len(masks)
