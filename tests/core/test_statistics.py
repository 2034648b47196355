"""Unit tests for circuit statistics (the ps -c command output)."""

import math
import random

import pytest

import _statistics_reference as reference
from repro.core.circuit import QuantumCircuit
from repro.core.gates import is_clifford_name
from repro.core.statistics import circuit_statistics


class TestStatistics:
    def test_empty_circuit(self):
        stats = circuit_statistics(QuantumCircuit(2))
        assert stats.num_gates == 0
        assert stats.depth == 0
        assert stats.t_count == 0

    def test_counts(self):
        circ = QuantumCircuit(3)
        circ.h(0).t(0).t(1).tdg(2).cx(0, 1).cx(1, 2).s(0)
        stats = circuit_statistics(circ)
        assert stats.num_qubits == 3
        assert stats.num_gates == 7
        assert stats.t_count == 3
        assert stats.two_qubit_count == 2
        # clifford: h, cx, cx, s
        assert stats.clifford_count == 4

    def test_barriers_and_measures_excluded_from_gates(self):
        circ = QuantumCircuit(1, 1).h(0).barrier().measure(0, 0)
        stats = circuit_statistics(circ)
        assert stats.num_gates == 1
        assert stats.histogram["measure"] == 1

    def test_as_dict_keys(self):
        stats = circuit_statistics(QuantumCircuit(1).t(0))
        data = stats.as_dict()
        for key in ("qubits", "gates", "depth", "t_count", "t_depth"):
            assert key in data

    def test_str_contains_figures(self):
        circ = QuantumCircuit(2).t(0).cx(0, 1)
        text = str(circuit_statistics(circ))
        assert "T: 1" in text
        assert "qubits: 2" in text


def _random_circuit(rng):
    n = rng.randint(1, 5)
    circ = QuantumCircuit(n, n)
    for _ in range(rng.randint(0, 40)):
        wires = rng.sample(range(n), min(n, rng.randint(1, 3)))
        roll = rng.random()
        if roll < 0.1:
            circ.barrier(*rng.sample(range(n), rng.randint(1, n)))
        elif roll < 0.15:
            circ.measure(wires[0], rng.randrange(n))
        elif roll < 0.2:
            circ.reset(wires[0])
        elif roll < 0.45:
            name = rng.choice(["t", "tdg", "h", "s", "sdg", "x", "y", "z"])
            getattr(circ, name)(wires[0])
        elif roll < 0.55:
            circ.rz(rng.choice([0.3, math.pi / 2, math.pi]), wires[0])
        elif len(wires) >= 2 and roll < 0.8:
            getattr(circ, rng.choice(["cx", "cz", "swap"]))(*wires[:2])
        elif len(wires) >= 3:
            circ.ccx(*wires[:3])
    return circ


@pytest.mark.parametrize("seed", range(60))
def test_one_scan_matches_the_per_figure_loops(seed):
    circ = _random_circuit(random.Random(seed))
    stats = circuit_statistics(circ)
    assert stats.num_qubits == circ.num_qubits
    assert stats.num_gates == len(circ.unitary_gates())
    assert stats.depth == reference.depth(circ)
    assert stats.t_depth == reference.t_depth(circ)
    assert stats.t_count == reference.t_count(circ)
    assert stats.two_qubit_count == reference.two_qubit_count(circ)
    assert stats.clifford_count == sum(
        1 for g in circ.unitary_gates() if is_clifford_name(g.name, g.params)
    )
    assert stats.histogram == reference.count_ops(circ)


@pytest.mark.parametrize("seed", range(20))
def test_circuit_methods_match_the_per_figure_loops(seed):
    circ = _random_circuit(random.Random(seed))
    for frozen in (circ.copy(), circ.copy().freeze()):
        assert frozen.depth() == reference.depth(circ)
        assert frozen.t_count() == reference.t_count(circ)
        assert frozen.two_qubit_count() == reference.two_qubit_count(circ)
        assert frozen.count_ops() == reference.count_ops(circ)


def test_frozen_circuit_scans_once_and_hands_out_histogram_copies(
    monkeypatch,
):
    from repro.core import circuit as circuit_module

    scans = []

    def counting(circ):
        scans.append(circ)
        return circuit_statistics(circ)

    monkeypatch.setattr(circuit_module, "circuit_statistics", counting)
    circ = QuantumCircuit(2).h(0).cx(0, 1).freeze()
    assert (circ.depth(), circ.two_qubit_count()) == (2, 1)
    ops = circ.count_ops()
    ops["h"] = 99
    assert circ.count_ops() == {"h": 1, "cx": 1}
    assert len(scans) == 1
    # a builder rescans, so an edit shows at once
    builder = circ.copy()
    assert builder.depth() == 2
    builder.x(1)
    assert builder.depth() == 3
    assert len(scans) == 3


def test_scales_without_simulation():
    """Counting works far beyond simulable widths."""
    circ = QuantumCircuit(200)
    for q in range(199):
        circ.cx(q, q + 1)
    for q in range(200):
        circ.t(q)
    stats = circuit_statistics(circ)
    assert stats.num_qubits == 200
    assert (stats.histogram["cx"], stats.t_count) == (199, 200)
