"""Golden-file guard: legacy emission output is byte-identical.

The files under ``tests/emit/golden/`` were captured from the
pre-refactor code (PR 4 state), where QASM lived in ``core/qasm.py``,
Q# generation in ``frameworks/qsharp.py`` and the ProjectQ line
assembly inline in ``CompilationResult.to_projectq``.  The refactor
onto the ``repro.emit`` registry must not change a single byte of
what ``to_qasm`` / ``emit("qsharp")`` / ``to_projectq`` produce.
"""

import pathlib

import pytest

import repro
from repro.boolean.permutation import BitPermutation

GOLDEN = pathlib.Path(__file__).parent / "golden"
PERM = [0, 2, 3, 5, 7, 1, 4, 6]


@pytest.fixture(scope="module")
def perm():
    return BitPermutation(PERM)


def _golden(name):
    return GOLDEN.joinpath(name).read_text()


class TestByteIdentical:
    def test_qasm_via_ibm_qe5(self, perm):
        result = repro.compile(perm, target="ibm_qe5", cache=None)
        assert result.to_qasm() == _golden("perm8_ibm_qe5.qasm")

    def test_qasm_via_emit_default(self, perm):
        result = repro.compile(perm, target="ibm_qe5", cache=None)
        assert result.emit() == _golden("perm8_ibm_qe5.qasm")

    def test_qsharp_default_name(self, perm):
        result = repro.compile(perm, target="qsharp", cache=None)
        assert result.emit("qsharp") == _golden("perm8_qsharp.qs")

    def test_qsharp_custom_name(self, perm):
        result = repro.compile(perm, target="qsharp", cache=None)
        assert result.emit("qsharp", name="GoldenOracle") == _golden(
            "perm8_qsharp_named.qs"
        )

    def test_projectq(self, perm):
        result = repro.compile(perm, target="projectq", cache=None)
        assert result.to_projectq() == _golden("perm8_projectq.py.txt")

    def test_qasm_via_eq5_generator(self):
        result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
        assert result.to_qasm() == _golden("hwb4_clifford_t.qasm")

    def test_legacy_alias_matches_canonical(self, perm):
        result = repro.compile(perm, target="ibm_qe5", cache=None)
        assert result.emit("qasm") == result.emit("qasm2")
