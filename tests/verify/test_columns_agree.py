"""Differential testing: the column evaluator against per-input runs.

:meth:`ReversibleCircuit.columns` evaluates a cascade on every input at
once, one ``2^n``-bit int per line; the permutation checks compare
those columns instead of looping over inputs.  Hypothesis checks it
against per-input evaluation:

* on random cascades of 1-10 lines with mixed-polarity controls, every
  line's column agrees with :meth:`ReversibleCircuit.apply` on every
  input, with all lines free or only the low ones;
* on one-gate mutants (a dropped gate, a flipped polarity, a moved
  target or control) and on equal cascades with one gate inserted
  twice, ``check_same_permutation`` and
  ``check_specification`` accept exactly when the per-input outputs
  agree, and otherwise name the first differing input;
* on random classical circuits with ``swap``/``cswap`` gates and clean
  ancillae, :func:`~repro.verify.tiers.classical_cascade` agrees with
  the per-input oracle ``tests/_classical_reference.py``, and so does
  the classical branch of ``check_mapped_circuit``.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``tests/conftest.py``) the run is
derandomized, so CI failures replay exactly.
"""

from hypothesis import given
from hypothesis import strategies as st

from _classical_reference import apply_classical_gates

from repro.boolean.permutation import BitPermutation
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.verify import EquivalenceChecker, tiers

CHECKER = EquivalenceChecker()


def _outputs(columns, inputs):
    """Per-input output values read back from line columns."""
    return [
        sum(((column >> x) & 1) << line for line, column in enumerate(columns))
        for x in range(1 << inputs)
    ]


def _first_difference(a, b):
    return next((x for x, (u, v) in enumerate(zip(a, b)) if u != v), None)


@st.composite
def mct_gates(draw, n):
    """One MCT gate on ``n`` lines with mixed-polarity controls."""
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=min(4, n), unique=True,
        )
    )
    polarity = tuple(draw(st.booleans()) for _ in lines[1:])
    return MctGate(lines[0], tuple(lines[1:]), polarity)


@st.composite
def cascades(draw, min_lines=1):
    n = draw(st.integers(min_value=min_lines, max_value=10))
    cascade = ReversibleCircuit(n)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        cascade.append(draw(mct_gates(n)))
    return cascade


@st.composite
def mutants(draw):
    """A cascade and a one-gate mutant of it, or an equal cascade with
    one gate inserted twice."""
    cascade = draw(cascades(min_lines=2).filter(lambda c: len(c) > 0))
    mutant = cascade.copy()
    i = draw(st.integers(min_value=0, max_value=len(cascade) - 1))
    gate = cascade.gates[i]
    kinds = ["drop", "move", "twice"]
    if gate.controls:
        kinds.append("flip")
    kind = draw(st.sampled_from(kinds))
    if kind == "twice":
        extra = draw(mct_gates(cascade.num_lines))
        mutant.gates[i:i] = [extra, extra]
    elif kind == "drop":
        del mutant.gates[i]
    elif kind == "flip":
        k = draw(st.integers(min_value=0, max_value=len(gate.controls) - 1))
        polarity = list(gate.polarity)
        polarity[k] = not polarity[k]
        mutant.gates[i] = MctGate(gate.target, gate.controls, tuple(polarity))
    else:
        # move the target or one control onto a line the gate leaves free
        free = [x for x in range(cascade.num_lines) if x not in gate.lines()]
        if not free:
            del mutant.gates[i]
        else:
            line = draw(st.sampled_from(free))
            slot = draw(st.integers(min_value=0, max_value=len(gate.controls)))
            if slot == len(gate.controls):
                moved = MctGate(line, gate.controls, gate.polarity)
            else:
                controls = list(gate.controls)
                controls[slot] = line
                moved = MctGate(gate.target, tuple(controls), gate.polarity)
            mutant.gates[i] = moved
    return cascade, mutant


@given(cascades(), st.data())
def test_columns_agree_with_apply(cascade, data):
    n = cascade.num_lines
    assert _outputs(cascade.columns(), n) == [
        cascade.apply(x) for x in range(1 << n)
    ]
    inputs = data.draw(st.integers(min_value=0, max_value=n))
    assert _outputs(cascade.columns(inputs), inputs) == [
        cascade.apply(x) for x in range(1 << inputs)
    ]


@given(mutants())
def test_permutation_checks_agree_with_apply(pair):
    cascade, mutant = pair
    n = cascade.num_lines
    expected = [cascade.apply(x) for x in range(1 << n)]
    actual = [mutant.apply(x) for x in range(1 << n)]
    first = _first_difference(expected, actual)
    same = CHECKER.check_same_permutation(cascade, mutant)
    spec = CHECKER.check_specification(mutant, BitPermutation(expected))
    for verdict, detail in (
        (same, "pass changed the realized permutation (input {})"),
        (spec, "synthesized cascade does not realize the permutation "
               "(input {})"),
    ):
        assert verdict.tier == "permutation"
        if first is None:
            assert verdict.passed and verdict.checks == 1 << n
        else:
            assert verdict.status == "failed"
            assert verdict.detail == detail.format(first)
            assert verdict.checks == first + 1


#: the classical vocabulary drawn, with its wire count
CLASSICAL = (("x", 1), ("cx", 2), ("ccx", 3), ("mcx", 4), ("swap", 2),
             ("cswap", 3), ("id", 1), ("barrier", 2))


@st.composite
def classical_gates(draw, width):
    name, size = draw(
        st.sampled_from([(n, k) for n, k in CLASSICAL if k <= width])
    )
    wires = tuple(draw(st.permutations(range(width)))[:size])
    if name in ("swap", "cswap"):
        return Gate(name, wires[-2:], wires[:-2])
    if name in ("id", "barrier"):
        return Gate(name, wires)
    return Gate(name, wires[-1:], wires[:-1])


@st.composite
def mapped_pairs(draw):
    """A cascade and a classical circuit claiming to implement it.

    The circuit is the cascade on ``n`` data wires plus up to three
    ancillae, with a random classical circuit and its inverse spliced
    in at a random cut (touching the ancillae, so they must come back
    clean), then maybe one gate dropped or rewired.
    """
    cascade = draw(cascades())
    n = cascade.num_lines
    width = n + draw(st.integers(min_value=0, max_value=3))
    gates = list(cascade.to_quantum_circuit().gates)
    splice = [
        draw(classical_gates(width))
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    cut = draw(st.integers(min_value=0, max_value=len(gates)))
    gates[cut:cut] = splice + splice[::-1]
    if gates and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(gates) - 1))
        if draw(st.booleans()):
            del gates[i]
        else:
            shift = {q: (q + 1) % width for q in range(width)}
            gates[i] = gates[i].remap(shift)
    circuit = QuantumCircuit(width)
    for gate in gates:
        circuit.append(gate)
    return circuit, cascade


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.integers(min_value=0, max_value=width),
        st.lists(classical_gates(width), max_size=12),
    )
))
def test_classical_cascade_agrees_with_the_reference(drawn):
    width, inputs, gates = drawn
    circuit = QuantumCircuit(width)
    for gate in gates:
        circuit.append(gate)
    columns = tiers.classical_cascade(circuit).columns(inputs)
    assert _outputs(columns, inputs) == [
        apply_classical_gates(circuit, x) for x in range(1 << inputs)
    ]


@given(mapped_pairs())
def test_mapped_check_agrees_with_the_reference(pair):
    circuit, cascade = pair
    n = cascade.num_lines
    first = _first_difference(
        [cascade.apply(x) for x in range(1 << n)],
        [apply_classical_gates(circuit, x) for x in range(1 << n)],
    )
    verdict = CHECKER.check_mapped_circuit(circuit, cascade)
    assert verdict.tier == "permutation"
    if first is None:
        assert verdict.passed and verdict.checks == 1 << n
    else:
        assert verdict.status == "failed"
        assert verdict.detail == f"mismatch at input {first}"
        assert verdict.checks == first + 1


def test_a_non_classical_gate_stops_the_translation():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1).h(0).cx(0, 1)
    assert tiers.classical_cascade(circuit) is None
