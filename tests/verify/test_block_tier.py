"""The block tier: ``rptm`` checked block by block against its certificate.

``rptm`` hands the checker one block length per source gate, counted
by the lowering that made the output
(:func:`repro.mapping.barenco.map_with_block_lengths`).  The checker
validates the tiling, checks each distinct local block densely once,
and falls through to the whole-circuit tiers when anything does not
validate.
These tests hold it to three promises:

* on correct lowerings it agrees with the whole-circuit check — the
  Fig. 10 benchmark pool, the Eq. (5) core specs and both ladder
  kinds — and its detail shows the block tier ran; a block that
  borrows a data wire is left to the whole-circuit tiers;
* a forged certificate falls through and never passes a wrong
  circuit, and a mutant inside a block is rejected even when the
  certificate is adjusted to tile it;
* short ``mcx``/``mcz`` gates and measurement circuits verify.

Randomized cases use the Hypothesis profile of ``conftest.py``
(``HYPOTHESIS_PROFILE=ci`` derandomizes them).
"""

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.circuit import QuantumCircuit
from repro.core.gates import ADJOINT_NAME, Gate
from repro.mapping.barenco import map_to_clifford_t, map_with_block_lengths
from repro.pipeline import FlowState, MapToCliffordTPass, Pipeline
from repro.synthesis.reversible import MctGate, ReversibleCircuit
from repro.verify import EquivalenceChecker, tiers

CHECKER = EquivalenceChecker()

#: the detail a verdict of the block tier carries
BLOCK_DETAIL = re.compile(r"^\d+ blocks, \d+ distinct, <= \d+ wires$")

#: the paper's Fig. 10 permutation
PAPER_PI = (0, 2, 3, 5, 7, 1, 4, 6)

#: The Eq. (5) core specs of the ``eq5-cold`` benchmark.
EQ5_CORE = (
    {"hwb": 4}, {"hwb": 5}, {"adder": 5, "const": 11}, {"gray": 5},
    {"rotate": 5, "amount": 2}, {"random": 4, "seed": 2018},
    {"random": 5, "seed": 2018},
)

#: mapping options: the paper's rptm and full-Toffoli ladders
RPTM = {"relative_phase": True}
FULL_TOFFOLI = {"relative_phase": False}


def fig10_pool(rounds=8):
    """The ``fig10-verified`` benchmark's spec pool.

    ``pi``, then per round one seeded random permutation for each of
    the widths 3, 3, 4, 4, 4, 5, 5 (as ``perfbench/workloads.py``
    draws them).
    """
    pool = [PAPER_PI]
    for pool_round in range(rounds):
        for slot, width in enumerate((3, 3, 4, 4, 4, 5, 5)):
            image = list(range(1 << width))
            random.Random(f"fig10-pool:{pool_round}:{slot}").shuffle(image)
            pool.append(tuple(image))
    return pool


def cascade(spec):
    """The synthesized and simplified MCT cascade of a spec."""
    if isinstance(spec, tuple):
        spec = list(spec)
    return repro.compile(spec, target="toffoli", cache=None).reversible


def both_checks(reversible, options, blocks=None):
    """``(whole-circuit verdict, block-tier verdict)`` of one lowering."""
    mapped = map_to_clifford_t(reversible, **options)
    if blocks is None:
        blocks = map_with_block_lengths(reversible, **options)[1]
    return (
        CHECKER.check_mapped_circuit(mapped, reversible),
        CHECKER.check_mapped_circuit(mapped, reversible, blocks=blocks),
    )


def assert_agree_through_blocks(whole, blocks):
    """Both verdicts pass densely, and only the second took the blocks."""
    assert (whole.status, whole.tier) == ("passed", "dense")
    assert (blocks.status, blocks.tier) == ("passed", "dense")
    assert BLOCK_DETAIL.match(blocks.detail), blocks.detail
    assert not BLOCK_DETAIL.match(whole.detail)


# ----------------------------------------------------------------------
# differential against the whole-circuit check
# ----------------------------------------------------------------------
class TestAgreesWithWholeCircuit:
    def test_fig10_pool(self):
        for spec in fig10_pool():
            assert_agree_through_blocks(*both_checks(cascade(spec), RPTM))

    @pytest.mark.parametrize("spec", EQ5_CORE, ids=str)
    @pytest.mark.parametrize(
        "options", [RPTM, FULL_TOFFOLI], ids=["rptm", "full-toffoli"]
    )
    def test_eq5_core(self, spec, options):
        reversible = cascade(spec)
        assert map_to_clifford_t(reversible, **options).num_qubits <= 10
        assert_agree_through_blocks(*both_checks(reversible, options))

    def test_full_toffoli_ladders_on_the_first_pool_round(self):
        for spec in fig10_pool(rounds=1):
            assert_agree_through_blocks(
                *both_checks(cascade(spec), FULL_TOFFOLI)
            )

    @pytest.mark.parametrize(
        "options", [RPTM, FULL_TOFFOLI], ids=["rptm", "full-toffoli"]
    )
    def test_negative_controls(self, options):
        reversible = ReversibleCircuit(6)
        reversible.append(MctGate(3, (0, 1, 2), (True, False, True)))
        reversible.append(MctGate(0, (4, 1), (False, False)))
        reversible.append(MctGate(5, (0,), (False,)))
        reversible.append(MctGate(1, (3, 2, 0), (False, True, False)))
        assert_agree_through_blocks(*both_checks(reversible, options))

    def test_quantum_source_through_the_pass(self):
        source = cascade(PAPER_PI).to_quantum_circuit()
        before = FlowState(quantum=source)
        rptm = MapToCliffordTPass()
        verdict = rptm.check(CHECKER, before, rptm.run(before))
        whole = CHECKER.check_extended_unitary(
            source, map_to_clifford_t(source)
        )
        assert (whole.status, whole.tier) == ("passed", "dense")
        assert (verdict.status, verdict.tier) == ("passed", "dense")
        assert BLOCK_DETAIL.match(verdict.detail), verdict.detail

    def test_distinct_blocks_are_counted_once(self):
        verdict = both_checks(cascade({"hwb": 4}), RPTM)[1]
        blocks, distinct = map(int, re.findall(r"\d+", verdict.detail)[:2])
        assert 1 <= distinct < blocks


@st.composite
def cascades(draw):
    """A random MCT cascade on 3-6 lines with up to 3 controls a gate."""
    n = draw(st.integers(min_value=3, max_value=6))
    out = ReversibleCircuit(n)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        lines = draw(st.permutations(range(n)))
        k = draw(st.integers(min_value=0, max_value=min(3, n - 1)))
        polarity = tuple(
            draw(st.lists(st.booleans(), min_size=k, max_size=k))
        )
        out.append(MctGate(lines[k], tuple(lines[:k]), polarity))
    return out


def _corrupted(gate):
    """A gate that differs from ``gate`` on its own wires."""
    if len(gate.qubits) == 2:
        return Gate(gate.name, gate.controls, gate.targets, gate.params)
    if gate.name in ADJOINT_NAME:
        return gate.dagger()
    return Gate("s" if gate.name != "s" else "h", gate.targets)


@given(
    reversible=cascades(),
    options=st.sampled_from([RPTM, FULL_TOFFOLI]),
    mutation=st.sampled_from(["none", "replace", "drop", "insert"]),
    where=st.integers(min_value=0),
)
def test_random_cascades_and_in_block_mutants_agree(
    reversible, options, mutation, where
):
    """Block-tier and whole-circuit verdicts agree, mutants included.

    A mutant edits one gate inside a block and adjusts that block's
    length, so the certificate still tiles the mutated output.
    """
    mapped = map_to_clifford_t(reversible, **options)
    lengths = list(map_with_block_lengths(reversible, **options)[1])
    gates = list(mapped.gates)
    i = where % len(gates)
    block = next(
        b for b in range(len(lengths)) if sum(lengths[:b + 1]) > i
    )
    if mutation == "replace":
        gates[i] = _corrupted(gates[i])
    elif mutation == "drop" and lengths[block] > 1:
        del gates[i]
        lengths[block] -= 1
    elif mutation == "insert":
        gates.insert(i, Gate("h", (gates[i].targets[0],)))
        lengths[block] += 1
    mutant = QuantumCircuit(mapped.num_qubits)
    mutant.gates = gates
    whole = CHECKER.check_mapped_circuit(mutant, reversible)
    blocks = CHECKER.check_mapped_circuit(mutant, reversible, blocks=lengths)
    assert blocks.status == whole.status
    if mutation == "none":
        assert blocks.status == "passed"
        # classical lowerings (no gate past one control) stay with the
        # permutation tier; every other one is settled by its blocks
        if whole.tier != "permutation":
            assert BLOCK_DETAIL.match(blocks.detail), blocks.detail


# ----------------------------------------------------------------------
# certificates are checked, never trusted
# ----------------------------------------------------------------------
def _off_by_one(lengths):
    out = list(lengths)
    i = next(i for i, length in enumerate(out) if length > 1)
    out[i] -= 1
    out[i + 1] += 1
    return out


def _with_extra_gate(lengths):
    out = list(lengths)
    out[-1] += 1
    return out


FORGERIES = {
    "off-by-one": _off_by_one,
    "permuted": lambda lengths: list(reversed(lengths)),
    "wrong-total": _with_extra_gate,
    "one-short": lambda lengths: list(lengths)[:-1],
    "from-another-cascade": lambda lengths: map_with_block_lengths(
        cascade({"hwb": 4})
    )[1],
    "not-ints": lambda lengths: [float(length) for length in lengths],
}


class TestForgedCertificates:
    @pytest.fixture(scope="class")
    def lowering(self):
        reversible = cascade(PAPER_PI)
        lengths = map_with_block_lengths(reversible)[1]
        assert list(reversed(lengths)) != list(lengths)
        return reversible, map_to_clifford_t(reversible), lengths

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_falls_through_on_a_correct_circuit(self, lowering, forgery):
        reversible, mapped, lengths = lowering
        forged = FORGERIES[forgery](lengths)
        verdict = CHECKER.check_mapped_circuit(
            mapped, reversible, blocks=forged
        )
        assert (verdict.status, verdict.tier) == ("passed", "dense")
        assert not BLOCK_DETAIL.match(verdict.detail)

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_never_passes_a_wrong_circuit(self, lowering, forgery):
        reversible, mapped, lengths = lowering
        wrong = mapped.copy().x(0)
        for certificate in (FORGERIES[forgery](lengths),
                            _with_extra_gate(lengths)):
            verdict = CHECKER.check_mapped_circuit(
                wrong, reversible, blocks=certificate
            )
            assert verdict.status == "failed"

    def test_certificate_of_another_cascade_with_the_same_shape(self):
        # two cascades whose lowerings tile alike: the certificate
        # validates the tiling, but the blocks stand for other gates
        ours = ReversibleCircuit(3)
        ours.append(MctGate(2, (0, 1)))
        theirs = ReversibleCircuit(3)
        theirs.append(MctGate(0, (1, 2)))
        assert (
            map_with_block_lengths(ours)[1]
            == map_with_block_lengths(theirs)[1]
        )
        verdict = CHECKER.check_mapped_circuit(
            map_to_clifford_t(theirs), ours,
            blocks=map_with_block_lengths(theirs)[1],
        )
        assert verdict.status == "failed"


def test_clean_ladder_on_borrowed_wires_is_rejected():
    # the clean ladder is right only while its ancilla holds |0>; on a
    # borrowed data wire it must be checked for |1> as well
    from repro.mapping.barenco import mcx_clean_ancilla

    reversible = ReversibleCircuit(5)
    reversible.append(MctGate(3, (0, 1, 2)))
    ladder = mcx_clean_ancilla((0, 1, 2), 3, (4,), 5)
    verdict = CHECKER.check_mapped_circuit(
        ladder, reversible, blocks=[len(ladder.gates)]
    )
    assert verdict.status == "failed"


@pytest.mark.parametrize("source", ["cascade", "circuit"])
def test_correct_v_chain_on_a_borrowed_wire_goes_to_the_whole_circuit(source):
    # the dirty-ancilla V-chain of a 3-control gate borrows data wire 4
    # and is right for either value on it; the block tier leaves a
    # block that touches another data wire to the whole-circuit tiers
    reversible = ReversibleCircuit(5)
    reversible.append(MctGate(3, (0, 1, 2)))
    chain = QuantumCircuit(5)
    for _ in range(2):
        chain.ccx(2, 4, 3).ccx(0, 1, 4)
    assert tiers.relabel_block(chain.gates, (0, 1, 2, 3), 5) is None
    if source == "cascade":
        verdict = CHECKER.check_mapped_circuit(chain, reversible, blocks=[4])
    else:
        verdict = CHECKER.check_extended_unitary(
            reversible.to_quantum_circuit(), chain, blocks=[4]
        )
    assert verdict.status == "passed"
    assert not BLOCK_DETAIL.match(verdict.detail)


def v_chain_lowering(reversible, drop=None):
    """A lowering that borrows idle data wires, with its block lengths.

    Every gate of three or more controls gets the dirty-ancilla V-chain
    of Barenco et al. (PRA 52, 1995) on the first idle lines: the
    zig-zag of ``4(k-2)`` ``ccx`` gates that is right for any value on
    the borrowed wires.  ``rptm`` no longer makes it, so it stands for
    a lowering the block tier must leave to the whole-circuit tiers.
    ``drop=i`` leaves out the chain's ``i``-th ``ccx`` in the widest
    gate (a broken lowering whose certificate still tiles it).
    """
    n = reversible.num_lines
    widest = max(range(len(reversible.gates)),
                 key=lambda i: reversible.gates[i].num_controls)
    out = QuantumCircuit(n)
    blocks = []
    for index, gate in enumerate(reversible.gates):
        start = len(out.gates)
        controls, target = list(gate.controls), gate.target
        negative = [c for c, on in zip(controls, gate.polarity) if not on]
        for c in negative:
            out.x(c)
        k = len(controls)
        if k == 0:
            out.x(target)
        elif k == 1:
            out.cx(controls[0], target)
        elif k == 2:
            out.ccx(controls[0], controls[1], target)
        else:
            busy = set(controls) | {target}
            borrowed = [q for q in range(n) if q not in busy][:k - 2]

            def step(i):
                if i == 2:
                    return controls[0], controls[1], borrowed[0]
                if i == k:
                    return controls[k - 1], borrowed[k - 3], target
                return controls[i - 1], borrowed[i - 3], borrowed[i - 2]

            zigzag = [step(i) for i in range(k, 1, -1)]
            zigzag += [step(i) for i in range(3, k)]
            for position, wires in enumerate(zigzag + zigzag):
                if index == widest and position == drop:
                    continue
                out.ccx(*wires)
        for c in negative:
            out.x(c)
        blocks.append(len(out.gates) - start)
    return out, blocks


#: the specs the V-chain tests widen by two idle lines
BORROWING_SPECS = [*fig10_pool(rounds=1)[3:], {"hwb": 4}, {"hwb": 5}]


@pytest.mark.parametrize("spec", BORROWING_SPECS, ids=str)
def test_v_chain_lowering_goes_to_the_whole_circuit(spec):
    reversible = ReversibleCircuit(cascade(spec).num_lines + 2)
    reversible.extend(cascade(spec).gates)
    assert max(g.num_controls for g in reversible.gates) >= 3
    mapped, blocks = v_chain_lowering(reversible)
    assert mapped.num_qubits == reversible.num_lines  # nothing clean
    whole = CHECKER.check_mapped_circuit(mapped, reversible)
    verdict = CHECKER.check_mapped_circuit(mapped, reversible, blocks=blocks)
    assert (whole.status, verdict.status) == ("passed", "passed")
    assert not BLOCK_DETAIL.match(verdict.detail), verdict.detail


@pytest.mark.parametrize("spec", BORROWING_SPECS, ids=str)
def test_broken_v_chain_lowering_is_rejected(spec):
    reversible = ReversibleCircuit(cascade(spec).num_lines + 2)
    reversible.extend(cascade(spec).gates)
    mapped, blocks = v_chain_lowering(reversible, drop=1)
    assert sum(blocks) == len(mapped.gates)  # the certificate still tiles
    verdict = CHECKER.check_mapped_circuit(mapped, reversible, blocks=blocks)
    assert verdict.status == "failed"


class TestInBlockMutants:
    """Mutants inside one block, with the certificate adjusted to match."""

    @pytest.fixture(
        scope="class", params=["cascade", "circuit"], ids=str
    )
    def lowering(self, request):
        reversible = cascade(PAPER_PI)
        source = (
            reversible if request.param == "cascade"
            else reversible.to_quantum_circuit()
        )
        return (
            source,
            map_to_clifford_t(source),
            list(map_with_block_lengths(source)[1]),
        )

    @staticmethod
    def _check(source, gates, width, lengths):
        mutant = QuantumCircuit(width)
        mutant.gates = gates
        if isinstance(source, ReversibleCircuit):
            return CHECKER.check_mapped_circuit(
                mutant, source, blocks=lengths
            )
        return CHECKER.check_extended_unitary(source, mutant, blocks=lengths)

    @staticmethod
    def _first(gates, lengths, predicate):
        """``(gate index, block index)`` of the first matching gate."""
        start = 0
        for block, length in enumerate(lengths):
            for i in range(start, start + length):
                if length > 1 and predicate(gates[i]):
                    return i, block
            start += length
        raise AssertionError("no matching gate inside a block")

    def test_swapped_control_and_target(self, lowering):
        source, mapped, lengths = lowering
        gates = list(mapped.gates)
        i, _ = self._first(gates, lengths, lambda g: g.name == "cx")
        gates[i] = Gate("cx", gates[i].controls, gates[i].targets)
        verdict = self._check(source, gates, mapped.num_qubits, lengths)
        assert verdict.status == "failed"

    def test_dropped_t(self, lowering):
        source, mapped, lengths = lowering
        gates = list(mapped.gates)
        i, block = self._first(gates, lengths, lambda g: g.name == "t")
        del gates[i]
        lengths = list(lengths)
        lengths[block] -= 1
        verdict = self._check(source, gates, mapped.num_qubits, lengths)
        assert verdict.status == "failed"

    def test_extra_h(self, lowering):
        source, mapped, lengths = lowering
        gates = list(mapped.gates)
        i, block = self._first(gates, lengths, lambda g: g.name == "cx")
        gates.insert(i, Gate("h", gates[i].targets))
        lengths = list(lengths)
        lengths[block] += 1
        verdict = self._check(source, gates, mapped.num_qubits, lengths)
        assert verdict.status == "failed"


# ----------------------------------------------------------------------
# short multi-controlled gates, measurements, wide registers
# ----------------------------------------------------------------------
def _short_gates():
    circuit = QuantumCircuit(3)
    circuit.append(Gate("mcx", (1,)))
    circuit.append(Gate("mcx", (2,), (0,)))
    circuit.append(Gate("mcz", (0,)))
    circuit.append(Gate("mcz", (1,), (2,)))
    circuit.h(0)
    return circuit


class TestShortGatesAndMeasurements:
    def test_mcx_and_mcz_with_zero_or_one_control(self):
        source = _short_gates()
        before = FlowState(quantum=source)
        rptm = MapToCliffordTPass()
        after = rptm.run(before)
        assert [g.name for g in after.quantum.gates] == [
            "x", "cx", "z", "h", "cx", "h", "h",
        ]
        verdict = rptm.check(CHECKER, before, after)
        assert (verdict.status, verdict.tier) == ("passed", "dense")
        assert verdict.detail.startswith("5 blocks, ")

    def test_short_gate_lowered_to_the_wrong_gate_is_rejected(self):
        source = _short_gates()
        lowered = map_to_clifford_t(source)
        wrong = QuantumCircuit(lowered.num_qubits)
        wrong.gates = [Gate("z", (1,))] + list(lowered.gates[1:])
        verdict = CHECKER.check_extended_unitary(
            source, wrong, blocks=map_with_block_lengths(source)[1]
        )
        assert verdict.status == "failed"

    def test_measurement_circuit_gets_a_passed_rptm_verdict(self):
        source = QuantumCircuit(3, 3)
        source.h(0).h(1).ccx(0, 1, 2)
        for q in range(3):
            source.measure(q, q)
        state, record = Pipeline(verify="auto", cache=None).apply(
            MapToCliffordTPass(), FlowState(quantum=source)
        )
        assert state.quantum.has_measurements()
        assert record.verification.status == "passed"
        assert record.verification.tier == "dense"
        assert BLOCK_DETAIL.match(record.verification.detail)
        # the whole-circuit tiers have no check for measurements
        whole = CHECKER.check_extended_unitary(source, state.quantum)
        assert whole.status == "skipped"

    def test_moved_measurement_falls_through(self):
        source = QuantumCircuit(2, 2).h(0).measure(0, 0).measure(1, 1)
        lowered = map_to_clifford_t(source)
        swapped = QuantumCircuit(2, 2).h(0).measure(1, 1).measure(0, 0)
        verdict = CHECKER.check_extended_unitary(
            source, swapped, blocks=map_with_block_lengths(source)[1]
        )
        assert verdict.status == "skipped"
        assert CHECKER.check_extended_unitary(
            source, lowered, blocks=map_with_block_lengths(source)[1]
        ).tier == "syntactic"

    def test_wide_register_gets_an_exact_verdict(self):
        # 12 data wires plus one clean ancilla: past the whole-circuit
        # dense limit, so without the certificate only probes remain
        source = QuantumCircuit(12)
        source.h(0).mcx([0, 1, 2], 11).cx(11, 5).mcz([3, 4, 5], 6)
        lowered = map_to_clifford_t(source)
        assert lowered.num_qubits == 13
        whole = CHECKER.check_extended_unitary(source, lowered)
        assert (whole.status, whole.tier) == ("passed", "probes")
        verdict = CHECKER.check_extended_unitary(
            source, lowered, blocks=map_with_block_lengths(source)[1]
        )
        assert (verdict.status, verdict.tier) == ("passed", "dense")
        assert BLOCK_DETAIL.match(verdict.detail)

    def test_block_wider_than_the_dense_limit_falls_through(self):
        narrow = EquivalenceChecker(max_dense_qubits=4)
        reversible = cascade({"hwb": 4})
        mapped = map_to_clifford_t(reversible)
        verdict = narrow.check_mapped_circuit(
            mapped, reversible, blocks=map_with_block_lengths(reversible)[1]
        )
        assert verdict.status == "passed"
        assert not BLOCK_DETAIL.match(verdict.detail or "")


# ----------------------------------------------------------------------
# independence of checker and pass
# ----------------------------------------------------------------------
def test_verify_imports_nothing_from_the_passes_it_checks():
    """``repro.verify`` imports neither ``repro.mapping`` nor
    ``repro.optimization``, at module level or inside a function: a
    bug shared by a pass and its checker would be invisible to both."""
    package = Path(repro.__file__).parent / "verify"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [("." * node.level) + (node.module or "")]
                names += [f"{names[0]}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.lstrip(".").split(".")
                if parts[0] == "repro":
                    parts = parts[1:]
                elif not name.startswith(".."):
                    continue
                if parts and parts[0] in ("mapping", "optimization"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
