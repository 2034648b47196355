"""The one-pass frontier ``cancel`` against the backward-scan reference.

:func:`repro.optimization.simplify.cancel_adjacent_gates` finds each
gate's only possible partner on a per-qubit frontier and makes a single
pass.  ``tests/_cancel_reference.py`` keeps the original backward scan,
iterated round by round to its fixpoint.  The two must agree gate for
gate on every circuit ``cancel`` sees in the Eq. (5) flows, and on
seeded random circuits that also carry barriers, measurements, resets,
classical bits, controlled and plain rotations, swaps and gates on no
qubit at all.
"""

import math
import random

import pytest

import _cancel_reference as reference
import repro
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.optimization.simplify import cancel_adjacent_gates
from repro.pipeline import passes

SPECS = (
    {"hwb": 3}, {"hwb": 4}, {"hwb": 5}, {"hwb": 6},
    {"adder": 5, "const": 11}, {"gray": 5}, {"rotate": 5, "amount": 2},
    {"random": 4, "seed": 2018}, {"random": 5, "seed": 2018},
)


def _width(spec):
    return next(v for k, v in spec.items() if k in passes.GENERATOR_KINDS)


FLOWS = [
    (spec, target)
    for spec in SPECS
    for target in ("clifford_t", "qsharp", "ibm_qe5")
    if target != "ibm_qe5" or _width(spec) <= 4
]


def _cancel_inputs(spec, target, monkeypatch):
    """Every circuit the flow hands to ``cancel``, in order."""
    seen = []

    def recording(circuit):
        seen.append(circuit)
        return cancel_adjacent_gates(circuit)

    monkeypatch.setattr(passes, "cancel_adjacent_gates", recording)
    repro.compile(spec, target=target, cache=None, verify="off")
    return seen


def assert_same_as_reference(circuit):
    out = cancel_adjacent_gates(circuit)
    expected = reference.cancel_adjacent_gates(circuit)
    assert out.gates == expected.gates
    assert (out.num_qubits, out.num_clbits, out.name) == (
        expected.num_qubits, expected.num_clbits, expected.name,
    )
    return out


@pytest.mark.parametrize(
    "spec, target",
    FLOWS,
    ids=[
        "-".join(f"{k}{v}" for k, v in spec.items()) + "-" + target
        for spec, target in FLOWS
    ],
)
def test_flow_inputs_match_reference(spec, target, monkeypatch):
    inputs = _cancel_inputs(spec, target, monkeypatch)
    assert inputs, "the flow never ran cancel"
    for circuit in inputs:
        assert_same_as_reference(circuit)


# ----------------------------------------------------------------------
# seeded random circuits
# ----------------------------------------------------------------------
#: small angle alphabet, so rotations meet their inverses and merge
ANGLES = (math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, 0.3, -0.3)
ONE_QUBIT = ("h", "x", "z", "s", "sdg", "t", "tdg", "id")


def random_circuit(rng: random.Random) -> QuantumCircuit:
    """A short, collision-heavy circuit over few wires."""
    n = rng.randint(1, 4)
    circuit = QuantumCircuit(n, 2, name=f"rand{n}")
    for _ in range(rng.randint(0, 40)):
        kind = rng.random()
        a = rng.randrange(n)
        if kind < 0.35:
            circuit.append(Gate(rng.choice(ONE_QUBIT), (a,)))
        elif kind < 0.55:
            circuit.append(Gate(rng.choice(("rz", "p", "rx")), (a,),
                                params=(rng.choice(ANGLES),)))
        elif kind < 0.75 and n > 1:
            b = rng.choice([q for q in range(n) if q != a])
            name = rng.choice(("cx", "cz", "swap", "cp", "cp"))
            if name == "swap":
                circuit.swap(a, b)
            elif name == "cp":
                circuit.cp(rng.choice(ANGLES), a, b)
            else:
                circuit.append(Gate(name, (b,), (a,)))
        elif kind < 0.8:
            circuit.barrier(*rng.sample(range(n), rng.randint(1, n)))
        elif kind < 0.85:
            circuit.measure(a, rng.randrange(2))
        elif kind < 0.9:
            circuit.reset(a)
        elif kind < 0.95:
            # a gate carrying classical bits never cancels, but a
            # rotation still merges
            name = rng.choice(("x", "rz"))
            params = (rng.choice(ANGLES),) if name == "rz" else ()
            circuit.append(Gate(name, (a,), params=params,
                                cbits=(rng.randrange(2),)))
        else:
            # gates on no qubit slide past everything but a fence
            circuit.append(Gate(rng.choice(("x", "h", "t", "tdg")), ()))
    return circuit


@pytest.mark.parametrize("chunk", range(10))
def test_random_circuits_match_reference(chunk):
    rng = random.Random(f"cancel-frontier:{chunk}")
    for _ in range(100):
        circuit = random_circuit(rng)
        out = assert_same_as_reference(circuit)
        # one frontier pass is the fixpoint: a second pass, and a single
        # round of the reference, change nothing
        assert cancel_adjacent_gates(out).gates == out.gates
        one_round = reference.cancel_adjacent_gates(circuit, max_rounds=1)
        assert one_round.gates == out.gates


def test_no_qubit_gates_pair_past_each_other():
    circuit = QuantumCircuit(1)
    for name in ("x", "h", "x"):
        circuit.append(Gate(name, ()))
    assert [g.name for g in assert_same_as_reference(circuit)] == ["h"]
