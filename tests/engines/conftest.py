"""Shared circuits for the engine tests."""

import pytest

from repro.core.circuit import QuantumCircuit


def fig6_hidden_shift_circuit() -> QuantumCircuit:
    """The paper's Fig. 6 run: 4-qubit hidden shift, s = 1.

    f(x) = x1x2 XOR x3x4 (the Fig. 4 bent function), shifted by
    s = 0001; the Fourier-sandwich circuit returns |s> on an ideal
    device and recovers it with probability ~0.63 under the IBM QE5
    calibration.
    """
    circuit = QuantumCircuit(4, 4, name="hidden-shift-fig6")
    for q in range(4):
        circuit.h(q)
    circuit.x(0)
    circuit.cz(0, 1)
    circuit.cz(2, 3)
    circuit.x(0)
    for q in range(4):
        circuit.h(q)
    circuit.cz(0, 1)
    circuit.cz(2, 3)
    for q in range(4):
        circuit.h(q)
    for q in range(4):
        circuit.measure(q, q)
    return circuit


@pytest.fixture
def fig6_circuit() -> QuantumCircuit:
    return fig6_hidden_shift_circuit()
