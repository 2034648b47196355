"""The one-pass frontier ``cancel`` against the backward-scan reference.

:func:`repro.optimization.simplify.cancel_adjacent_gates` finds each
gate's only possible partner on a per-qubit frontier and makes a single
pass.  ``tests/_cancel_reference.py`` keeps the original backward scan,
iterated round by round to its fixpoint.  The two must agree gate for
gate on every circuit ``cancel`` sees in the Eq. (5) flows and in the
Fig. 6 flows (the Fig. 4 program for ``ibm_qe5``, Maiorana-McFarland
hidden shifts for ``clifford_t``), and on seeded random circuits that
also carry barriers, measurements, resets, classical bits, controlled
and plain rotations, swaps and gates on no qubit at all.  Every circuit
those flows hand to ``tpar`` must likewise fold exactly as the
object-per-region reference (``tests/_tpar_reference.py``) folds it.
"""

import math
import random

import pytest

import _cancel_reference as reference
import _tpar_reference
import repro
from repro.algorithms import hidden_shift_circuit
from repro.boolean.bent import HiddenShiftInstance
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.frameworks.projectq import (
    All, CircuitCollector, Compute, H, MainEngine, Measure, PhaseOracle,
    Uncompute, X,
)
from repro.optimization.simplify import cancel_adjacent_gates
from repro.optimization.tpar import tpar_optimize
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


def _flow_inputs(source, target, monkeypatch):
    """Every circuit the flow hands to ``cancel`` and to ``tpar``."""
    seen = {"cancel": [], "tpar": []}

    def recorder(kind, function):
        def recording(circuit):
            seen[kind].append(circuit)
            return function(circuit)
        return recording

    monkeypatch.setattr(
        passes, "cancel_adjacent_gates",
        recorder("cancel", cancel_adjacent_gates),
    )
    monkeypatch.setattr(
        passes, "tpar_optimize", recorder("tpar", tpar_optimize)
    )
    repro.compile(source, target=target, cache=None, verify="off")
    return seen


def assert_same_as_reference(circuit):
    out = cancel_adjacent_gates(circuit)
    expected = reference.cancel_adjacent_gates(circuit)
    assert out.gates == expected.gates
    assert (out.num_qubits, out.num_clbits, out.name) == (
        expected.num_qubits, expected.num_clbits, expected.name,
    )
    return out


def assert_folds_as_reference(circuit):
    out = tpar_optimize(circuit)
    expected = _tpar_reference.tpar_optimize(circuit)
    assert out.gates == expected.gates
    assert (out.num_qubits, out.num_clbits, out.name) == (
        expected.num_qubits, expected.num_clbits, expected.name,
    )


def assert_flow_matches_references(source, target, monkeypatch):
    inputs = _flow_inputs(source, target, monkeypatch)
    assert inputs["cancel"], "the flow never ran cancel"
    for circuit in inputs["cancel"]:
        assert_same_as_reference(circuit)
    for circuit in inputs["tpar"]:
        assert_folds_as_reference(circuit)
    return inputs


@pytest.mark.parametrize(
    "spec, target",
    FLOWS,
    ids=[
        "-".join(f"{k}{v}" for k, v in spec.items()) + "-" + target
        for spec, target in FLOWS
    ],
)
def test_flow_inputs_match_reference(spec, target, monkeypatch):
    inputs = assert_flow_matches_references(spec, target, monkeypatch)
    # the qsharp flow stops at MCT gates and never folds phases
    assert bool(inputs["tpar"]) == (target != "qsharp")


def fig4_circuit(shift):
    """The paper's Fig. 4 ProjectQ program with a planted ``shift``."""
    eng = MainEngine(backend=CircuitCollector())
    qubits = eng.allocate_qureg(4)
    with Compute(eng):
        All(H) | qubits
        for i, qubit in enumerate(qubits):
            if (shift >> i) & 1:
                X | qubit
    PhaseOracle(lambda a, b, c, d: (a and b) ^ (c and d)) | qubits
    Uncompute(eng)
    PhaseOracle(lambda a, b, c, d: (a and b) ^ (c and d)) | qubits
    All(H) | qubits
    Measure | qubits
    eng.flush()
    return eng.circuit


@pytest.mark.parametrize("shift", (0, 1, 6, 15))
def test_fig4_flow_inputs_match_reference(shift, monkeypatch):
    inputs = assert_flow_matches_references(
        fig4_circuit(shift), "ibm_qe5", monkeypatch
    )
    assert inputs["tpar"], "the flow never ran tpar"


@pytest.mark.parametrize("seed", range(8))
def test_hidden_shift_flow_inputs_match_reference(seed, monkeypatch):
    instance = HiddenShiftInstance.random(3, seed=seed)
    circuit = hidden_shift_circuit(instance, method="mm").circuit
    inputs = assert_flow_matches_references(
        circuit, "clifford_t", monkeypatch
    )
    assert inputs["tpar"], "the flow never ran tpar"


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
            # a gate carrying classical bits never cancels or merges
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
