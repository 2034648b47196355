"""Packed tableau vs the pre-refactor dense implementation.

PR 10 rewrote :class:`StabilizerState` onto bit-packed uint64 planes
with vectorized popcount rowsums.  These differentials pin the rewrite
to the historical dense implementation
(``tests/_tableau_reference.py``), which evolved the tableau
with per-column Python loops:

* every gate of the 12-gate ``TABLEAU_GATES`` vocabulary, applied on
  entangled preludes, must leave a bit-identical tableau;
* ``measure`` must return the same outcomes from the same seeded RNG —
  the packed implementation draws exactly one ``rng.integers(0, 2)``
  per random measurement, in the same order, so seeded shot streams
  are reproducible across the refactor;
* Hypothesis drives random Clifford circuits with interleaved
  measurements over both implementations and compares everything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _tableau_reference import (
    ReferenceStabilizerState,
    expectation_z,
    reference_counts,
    stabilizer_strings,
)

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.simulator.stabilizer import StabilizerState
from repro.verify.tiers import TABLEAU_GATES

# the same entangled preludes the verify-tier vocabulary tests use
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


def _vocab_gate(name):
    """One concrete Gate exercising ``name`` on a 3-qubit register."""
    if name in ("cx", "cy", "cz"):
        return Gate(name, (2,), (0,))
    if name == "swap":
        return Gate(name, (0, 2))
    return Gate(name, (1,))


def _assert_tableaus_identical(packed, dense):
    """The packed state must unpack to the dense state's exact bits."""
    assert np.array_equal(packed.x, dense.x)
    assert np.array_equal(packed.z, dense.z)
    assert np.array_equal(packed.r.astype(np.uint8), dense.r)


class TestVocabularyAgainstDense:
    @pytest.mark.parametrize("name", sorted(TABLEAU_GATES))
    @pytest.mark.parametrize("prelude", range(len(_PRELUDES)))
    def test_gate_matches_dense_tableau(self, name, prelude):
        packed = StabilizerState(3)
        dense = ReferenceStabilizerState(3)
        for gate in _PRELUDES[prelude] + (_vocab_gate(name),):
            packed.apply_gate(gate)
            dense.apply_gate(gate)
            _assert_tableaus_identical(packed, dense)
        assert stabilizer_strings(packed) == stabilizer_strings(dense)

    @pytest.mark.parametrize("prelude", range(len(_PRELUDES)))
    def test_expectation_and_measure_match(self, prelude):
        packed = StabilizerState(3)
        dense = ReferenceStabilizerState(3)
        for gate in _PRELUDES[prelude]:
            packed.apply_gate(gate)
            dense.apply_gate(gate)
        for q in range(3):
            assert expectation_z(packed, q) == expectation_z(dense, q)
        rng_p = np.random.default_rng(13)
        rng_d = np.random.default_rng(13)
        for q in range(3):
            assert packed.measure(q, rng_p) == dense.measure(q, rng_d)
            _assert_tableaus_identical(packed, dense)

    def test_non_clifford_rejected_without_corruption(self):
        state = StabilizerState(2)
        state.apply_gate(Gate("h", (0,)))
        before = (state.xs.copy(), state.zs.copy(), state.r.copy())
        with pytest.raises(Exception, match="not Clifford"):
            state.apply_gate(Gate("t", (0,)))
        assert np.array_equal(state.xs, before[0])
        assert np.array_equal(state.zs, before[1])
        assert np.array_equal(state.r, before[2])


class TestSeededStreamPinning:
    def _random_clifford_circuit(self, n, num_gates, seed, measure=True):
        rng = np.random.default_rng(seed)
        one_q = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
        two_q = ("cx", "cy", "cz", "swap")
        circ = QuantumCircuit(n, n)
        for _ in range(num_gates):
            if rng.random() < 0.6 or n == 1:
                getattr(circ, one_q[rng.integers(len(one_q))])(
                    int(rng.integers(n))
                )
            else:
                a, b = rng.choice(n, size=2, replace=False)
                getattr(circ, two_q[rng.integers(len(two_q))])(
                    int(a), int(b)
                )
        if measure:
            circ.measure_all()
        return circ

    @pytest.mark.parametrize("seed", (0, 5, 9, 42))
    def test_simulator_counts_pinned_to_reference(self, seed):
        # same seed -> byte-identical counts: the packed rewrite must
        # not perturb the RNG stream of seeded shot runs
        circ = self._random_clifford_circuit(4, 30, seed)
        packed = engines.run("stabilizer", circ, shots=64, seed=seed).counts
        dense = reference_counts(circ, shots=64, seed=seed)
        assert packed == dense

    def test_reset_stream_pinned_to_reference(self):
        circ = QuantumCircuit(2, 2)
        circ.h(0)
        circ.cx(0, 1)
        circ.measure(0, 0)
        circ.reset(0)
        circ.h(0)
        circ.measure(0, 1)
        for seed in (1, 7):
            packed = engines.run("stabilizer", circ, shots=40, seed=seed)
            dense = reference_counts(circ, shots=40, seed=seed)
            assert packed.counts == dense

    def test_wide_register_beyond_word_boundary(self):
        # 70 qubits: the packed rows span two uint64 words, and the
        # GHZ outcomes stay all-zeros / all-ones
        n = 70
        circ = QuantumCircuit(n, n)
        circ.h(0)
        for q in range(n - 1):
            circ.cx(q, q + 1)
        circ.measure_all()
        counts = engines.run("stabilizer", circ, shots=6, seed=3).counts
        assert set(counts) <= {0, (1 << n) - 1}
        assert sum(counts.values()) == 6


class TestHypothesisDifferential:
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 8),
        depth=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_walk_matches_dense(self, seed, n, depth):
        rng = np.random.default_rng(seed)
        packed = StabilizerState(n)
        dense = ReferenceStabilizerState(n)
        rng_p = np.random.default_rng(seed + 1)
        rng_d = np.random.default_rng(seed + 1)
        one_q = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
        two_q = ("cx", "cy", "cz", "swap")
        for _ in range(depth):
            roll = rng.random()
            if roll < 0.55 or n == 1:
                name = one_q[rng.integers(len(one_q))]
                q = int(rng.integers(n))
                getattr(packed, f"apply_{name}")(q)
                getattr(dense, f"apply_{name}")(q)
            elif roll < 0.85:
                name = two_q[rng.integers(len(two_q))]
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                getattr(packed, f"apply_{name}")(a, b)
                getattr(dense, f"apply_{name}")(a, b)
            else:
                q = int(rng.integers(n))
                assert packed.measure(q, rng_p) == dense.measure(q, rng_d)
            _assert_tableaus_identical(packed, dense)
        assert stabilizer_strings(packed) == stabilizer_strings(dense)
        copied = packed.copy()
        _assert_tableaus_identical(copied, dense)
