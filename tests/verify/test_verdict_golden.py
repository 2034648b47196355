"""Golden verdicts: every ``verify="auto"`` compile keeps its verdicts.

For each compile of the corpus, the ``(pass, status, tier, detail,
checks)`` of every pass record is pinned in ``golden/verdicts.json``
(timings aside).  The corpus:

* the ``fig10-verified`` benchmark's 57-spec pool (the paper's pi and
  seven seeded 3-5 variable permutations per pool round) -> ``qsharp``;
* hwb 3-5 -> ``clifford_t`` and hwb 3-4 -> ``ibm_qe5`` (hwb5 maps to
  7 wires, more than the 5-qubit chip has);
* every compile of CI's tier-usage report;
* a 3- and a 4-variable truth table -> ``toffoli``, with ``esop`` and
  with ``bdd`` synthesis;
* rejections: every one-gate mutant of the pi and the hwb4 ``tbs``
  cascades against the original (``check_same_permutation``), against pi
  (``check_specification``) and as a classical circuit against the
  original (the classical branch of ``check_mapped_circuit``), so the
  first differing input each rejection names is pinned too.

The values were captured with the per-input checkers the column
evaluator replaced; to regenerate after an intended verdict change,
run this file as a script from the repository root.
"""

import json
import random
from pathlib import Path

import pytest

import repro
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.compiler import get_target
from repro.core.circuit import QuantumCircuit
from repro.pipeline import PassCache
from repro.synthesis.reversible import MctGate
from repro.synthesis.transformation import transformation_based_synthesis
from repro.verify import EquivalenceChecker

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

PAPER_PI = [0, 2, 3, 5, 7, 1, 4, 6]

#: the ``fig10-verified`` pool: widths per round, and the round count
FIG10_WIDTHS = (3, 3, 4, 4, 4, 5, 5)
FIG10_ROUNDS = 8


def _fig10_pool():
    yield "fig10 pi", PAPER_PI
    for pool_round in range(FIG10_ROUNDS):
        for slot, width in enumerate(FIG10_WIDTHS):
            image = list(range(1 << width))
            random.Random(f"fig10-pool:{pool_round}:{slot}").shuffle(image)
            yield f"fig10 {pool_round}:{slot}", image


def _row(name, verdict):
    return [name, verdict.status, verdict.tier, verdict.detail,
            verdict.checks]


def _rows(result):
    return [_row(r.name, r.verification) for r in result.records]


def _compile(spec, target, **kwargs):
    kwargs.setdefault("cache", None)
    return _rows(repro.compile(spec, target=target, verify="auto", **kwargs))


def _verified_replay():
    spec, cache = "(a and b) ^ (c and d)", PassCache()
    repro.compile(spec, target="qsharp", verify="off", cache=cache)
    return _compile(spec, "qsharp", cache=cache)


def _ci_circuits():
    measured = QuantumCircuit(2, 2)
    measured.h(0).h(0).t(1).tdg(1).cx(0, 1)
    measured.measure(0, 0).measure(1, 1)
    routed = QuantumCircuit(4, 4)
    routed.h(0).cx(1, 3).x(2)
    for q in range(4):
        routed.measure(q, q)
    reset = QuantumCircuit(2, 2)
    reset.h(0).reset(1).cx(0, 1).measure(0, 0).measure(1, 1)
    widened = QuantumCircuit(4)
    widened.h(0).h(1).h(2).mcx([0, 1, 2], 3)
    return {
        "ci measured -> ibm_qe5": (measured, "ibm_qe5"),
        "ci routed -> ibm_qe5": (routed, "ibm_qe5"),
        "ci reset -> ibm_qe5": (reset, "ibm_qe5"),
        "ci widened -> clifford_t": (widened, "clifford_t"),
    }


def _tables():
    return {
        "tt3": TruthTable.from_function(3, lambda a, b, c: (a and b) ^ c),
        "tt4": TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d) ^ (a and d)
        ),
    }


def _one_gate_mutants(cascade):
    """Every cascade with one gate dropped, its first control's
    polarity flipped, or its target moved to a line it leaves free."""
    for i, gate in enumerate(cascade.gates):
        dropped = cascade.copy()
        del dropped.gates[i]
        yield f"drop {i}", dropped
        if gate.controls:
            flipped = cascade.copy()
            flipped.gates[i] = MctGate(
                gate.target, gate.controls,
                (not gate.polarity[0],) + gate.polarity[1:],
            )
            yield f"flip {i}", flipped
        free = [x for x in range(cascade.num_lines) if x not in gate.lines()]
        if free:
            moved = cascade.copy()
            moved.gates[i] = MctGate(free[0], gate.controls, gate.polarity)
            yield f"move {i}", moved


def _rejections():
    checker = EquivalenceChecker()
    out = {}
    for spec, perm in (
        ("pi", BitPermutation(PAPER_PI)),
        ("hwb4", BitPermutation.hidden_weighted_bit(4)),
    ):
        cascade = transformation_based_synthesis(perm)
        checks = {
            "revsimp": lambda m, c=cascade: checker.check_same_permutation(
                c, m
            ),
            "tbs": lambda m, p=perm: checker.check_specification(m, p),
            "mapped": lambda m, c=cascade: checker.check_mapped_circuit(
                m.to_quantum_circuit(), c
            ),
        }
        for label, mutant in _one_gate_mutants(cascade):
            for name, check in checks.items():
                out[f"reject {spec} {label} {name}"] = (
                    lambda mutant=mutant, name=name, check=check: [
                        _row(name, check(mutant))
                    ]
                )
    return out


def cases():
    """Every corpus entry, label -> a thunk returning its rows."""
    out = {
        label: (lambda image=image: _compile(list(image), "qsharp"))
        for label, image in _fig10_pool()
    }
    for n, target in (
        (3, "clifford_t"), (4, "clifford_t"), (5, "clifford_t"),
        (3, "ibm_qe5"), (4, "ibm_qe5"),
    ):
        out[f"hwb{n} -> {target}"] = (
            lambda n=n, target=target: _compile({"hwb": n}, target)
        )
    for spec, target in (
        ("hwb=4", "clifford_t"),
        ("hwb=4", "ibm_qe5"),
        (PAPER_PI, "ibm_qe5"),
        ("(a and b) ^ (c and d)", "qsharp"),
    ):
        out[f"ci {spec} -> {target}"] = (
            lambda spec=spec, target=target: _compile(spec, target)
        )
    out["ci verified replay -> qsharp"] = _verified_replay
    for label, (circuit, target) in _ci_circuits().items():
        out[label] = (
            lambda circuit=circuit, target=target: _compile(circuit, target)
        )
    for name, table in _tables().items():
        for method in ("esop", "bdd"):
            toffoli = get_target("toffoli").with_(synthesis=method)
            out[f"{name} {method} -> toffoli"] = (
                lambda table=table, toffoli=toffoli: _compile(table, toffoli)
            )
    out.update(_rejections())
    return out


CASES = cases()


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_verdicts_match_golden(label):
    assert CASES[label]() == _golden()[label]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(label)}: {json.dumps(CASES[label]())}"
        for label in sorted(CASES)
    ) + "\n}\n")
