"""The one-pass ``tpar`` fold against the object-per-region reference.

:func:`repro.optimization.tpar.tpar_optimize` folds each region in two
loops over per-qubit parity lists and places merged phases from shared
gates.  ``tests/_tpar_reference.py`` keeps the original fold, which
builds a ``PhaseRegion`` per region and a fresh ``Gate`` per merged
phase.  The two must agree gate for gate: on Hypothesis circuits over
flips, swaps, ``rz``/``p`` (angles near the 1e-12 cut-offs and near
2*pi), separators that leave empty regions, and on seeded random
circuits.  The circuits the compile flows hand to ``tpar`` are
checked in ``test_cancel_frontier.py``.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _tpar_reference as reference
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.phase_polynomial import (
    greedy_t_layers,
    is_region_gate,
)
from repro.optimization.tpar import region_statistics, tpar_optimize

PHASES = ("t", "tdg", "s", "sdg", "z")
#: angles at the fold's 1e-12 cut-offs, at 2*pi and at plain values
ANGLES = (
    0.0, -0.0, 1e-12, -1e-12, 0.9e-12, 1.1e-12, 1e-13,
    2 * math.pi, -2 * math.pi, 2 * math.pi + 1e-13, 2 * math.pi - 1e-11,
    math.pi / 4, -math.pi / 4, math.pi, 0.3, -0.3, 1.0, 7.5,
)
#: gates that end a region
SEPARATORS = ("h", "y", "measure", "barrier", "crz", "ccx")


def assert_same_as_reference(circuit):
    out = tpar_optimize(circuit)
    expected = reference.tpar_optimize(circuit)
    assert out.gates == expected.gates
    assert [type(p) for g in out.gates for p in g.params] == [
        type(p) for g in expected.gates for p in g.params
    ]
    assert (out.num_qubits, out.num_clbits, out.name) == (
        expected.num_qubits, expected.num_clbits, expected.name,
    )
    return out


def add_gate(circuit, kind, a, b, c, angle):
    """Append one gate of ``kind`` on wires drawn as ``a``, ``b``, ``c``."""
    n = circuit.num_qubits
    a %= n
    others = [q for q in range(n) if q != a]
    if kind in ("cx", "swap", "crz", "ccx") and not others:
        kind = "x"
    if kind == "cx":
        circuit.cx(a, others[b % len(others)])
    elif kind == "swap":
        circuit.swap(a, others[b % len(others)])
    elif kind == "x":
        circuit.x(a)
    elif kind in PHASES:
        getattr(circuit, kind)(a)
    elif kind in ("rz", "p"):
        circuit.append(Gate(kind, (a,), params=(angle,)))
    elif kind == "h":
        circuit.h(a)
    elif kind == "y":
        circuit.y(a)
    elif kind == "measure":
        circuit.measure(a, c % circuit.num_clbits)
    elif kind == "barrier":
        circuit.barrier(a)
    elif kind == "crz":
        circuit.crz(angle, others[b % len(others)], a)
    elif kind == "ccx":
        if len(others) < 2:
            circuit.x(a)
        else:
            first = others[b % len(others)]
            second = others[(b + 1) % len(others)]
            circuit.ccx(first, second, a)


@st.composite
def region_circuits(draw):
    """Phase-region-heavy circuits with a few separators."""
    n = draw(st.integers(1, 5))
    circuit = QuantumCircuit(n, 2, name="prop")
    kinds = st.sampled_from(
        ("cx",) * 4 + ("x", "x", "swap", "swap", "rz", "p")
        + PHASES * 2 + SEPARATORS
    )
    for _ in range(draw(st.integers(0, 40))):
        add_gate(
            circuit, draw(kinds), draw(st.integers(0, 4)),
            draw(st.integers(0, 4)), draw(st.integers(0, 1)),
            draw(st.sampled_from(ANGLES)),
        )
    return circuit


@given(region_circuits())
def test_fold_matches_reference(circuit):
    assert_same_as_reference(circuit)


@given(region_circuits())
def test_region_statistics_match_reference(circuit):
    expected = []
    region = []
    for gate in circuit.gates + [Gate("h", (0,))]:
        if is_region_gate(gate):
            region.append(gate)
            continue
        if region:
            analysis = reference.PhaseRegion(circuit.num_qubits, region)
            odd = [t.mask for t in analysis.terms.values() if t.steps % 2]
            expected.append((
                sum(1 for g in region if g.name in ("t", "tdg")),
                len(odd),
                len(reference.greedy_t_layers(odd, circuit.num_qubits)),
            ))
        region = []
    assert region_statistics(circuit) == expected


@given(st.lists(st.integers(0, 31), max_size=20), st.integers(1, 5))
def test_t_layers_match_reference(masks, num_vars):
    assert greedy_t_layers(masks, num_vars) == reference.greedy_t_layers(
        masks, num_vars
    )


def test_seeded_random_circuits_match_reference():
    rng = random.Random("tpar-fold")
    kinds = ("cx",) * 5 + ("x", "swap", "rz", "p", "h") + PHASES * 2
    for _ in range(2000):
        circuit = QuantumCircuit(rng.randint(1, 6), 2, name="rand")
        for _ in range(rng.randint(0, 30)):
            add_gate(
                circuit, rng.choice(kinds), rng.randrange(6),
                rng.randrange(6), rng.randrange(2),
                rng.choice(ANGLES + (rng.uniform(-7, 7),)),
            )
        assert_same_as_reference(circuit)


def test_empty_and_separator_only_circuits():
    assert assert_same_as_reference(QuantumCircuit(3)).gates == []
    circuit = QuantumCircuit(2, 1).h(0).h(1).measure(0, 0)
    assert assert_same_as_reference(circuit).gates == circuit.gates


def test_trivial_region_keeps_only_its_linear_gates():
    circuit = QuantumCircuit(2).t(0).cx(0, 1).tdg(0).x(1).s(1).sdg(1)
    out = assert_same_as_reference(circuit)
    assert [g.name for g in out] == ["cx", "x"]


def test_merged_phases_share_gates_and_keep_p_fresh():
    circuit = QuantumCircuit(1).t(0).t(0).t(0).h(0).t(0).t(0).t(0)
    out = assert_same_as_reference(circuit)
    assert [g.name for g in out] == ["s", "t", "h", "s", "t"]
    assert out.gates[0] is out.gates[3] and out.gates[1] is out.gates[4]
    angled = QuantumCircuit(1).rz(0.3, 0).h(0).rz(0.3, 0)
    out = assert_same_as_reference(angled)
    assert out.gates[0] == out.gates[2] and out.gates[0] is not out.gates[2]


def test_out_of_range_gate_is_refused():
    circuit = QuantumCircuit(2).h(0)
    circuit.gates.append(Gate("h", (5,)))
    with pytest.raises(ValueError, match="outside range"):
        tpar_optimize(circuit)
