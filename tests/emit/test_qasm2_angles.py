"""qasm2 angles: direct pi-fraction rendering and an eval-free reader.

The exporter names each pi fraction by rounding once per denominator;
``tests/_qasm_reference.py`` keeps the original scan over every
numerator as the oracle.  The importer reads angles with a small
recursive-descent parser over floats, ``pi``, ``+ - * /`` and
parentheses: every string the exporter writes reads back as the float
Python's own arithmetic gives, and anything else (``**`` included)
raises :class:`QasmError` naming the line.
"""

import math
import random
import re
import struct

import pytest

import _qasm_reference as reference
from repro.emit.qasm2 import QasmError, _format_angle, _parse_angle, from_qasm

#: the exporter's denominators, and some it never writes
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32)


def pi_grid(near_misses=True):
    """k*pi/d angles past +-16*pi, with near misses around the 1e-12 cut."""
    for denom in DENOMINATORS:
        for num in range(-17 * denom, 17 * denom + 1, 1 + denom // 16):
            value = num * math.pi / denom
            yield value
            if near_misses:
                for offset in (0.999e-12, 1.001e-12):
                    yield value + offset
                    yield value - offset


def other_angles():
    rng = random.Random("qasm2-angles")
    yield from (0.0, -0.0, 1e-12, -1e-12, 1e-13, 1e-5, -1e-5, 0.3, 1.0)
    yield from (16 * math.pi, -16 * math.pi, 17 * math.pi, -17 * math.pi)
    yield from (16 * math.pi + 0.9e-12, -16 * math.pi - 0.9e-12)
    yield from (1e300, -1e300, 5e-324)
    for _ in range(1000):
        yield rng.uniform(-60.0, 60.0)


def bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("angles", (pi_grid, other_angles))
def test_format_matches_the_full_scan(angles):
    for value in angles():
        assert _format_angle(value, "rz") == reference.format_angle(value), value


def test_exported_angles_read_back_as_python_arithmetic():
    texts = [_format_angle(value, "rz") for value in pi_grid(near_misses=False)]
    expected = [bits(reference.eval_angle(text)) for text in texts]
    assert [bits(_parse_angle(text)) for text in texts] == expected
    lines = "".join(f"rz({text}) q[0];\n" for text in texts)
    read = from_qasm("OPENQASM 2.0;\nqreg q[1];\n" + lines)
    assert [bits(gate.params[0]) for gate in read.gates] == expected


@pytest.mark.parametrize(
    "text, value",
    [
        ("pi", math.pi),
        ("-pi/4", -math.pi / 4),
        ("-3*pi/4", -3 * math.pi / 4),
        ("+pi", math.pi),
        ("--pi", math.pi),
        ("2*-pi", -2 * math.pi),
        ("-(pi/2)", -(math.pi / 2)),
        ("(1 + 2) * pi / 4 - 1", (1 + 2) * math.pi / 4 - 1),
        ("8/4/2", 1.0),
        ("1-2-3", -4.0),
        ("1e-05", 1e-05),
        (".5", 0.5),
        ("3.", 3.0),
        ("2.5E+3", 2500.0),
        ("  pi / 2  ", math.pi / 2),
    ],
)
def test_arithmetic_grammar(text, value):
    assert bits(_parse_angle(text)) == bits(value)


@pytest.mark.parametrize(
    "text",
    [
        "2**2**4", "9**9**9", "pi**2", "", " ", "2pi", "pi pi", "(pi",
        "pi)", "()", "1/0", "pi/(1-1)", "1 2", "e", "1e", "tau",
        "__import__('os')", "pi;", "1,2", "pi//2", "*pi",
        "(" * 2000 + "1" + ")" * 2000,
        "-" * 5000 + "1",
    ],
)
def test_anything_else_raises(text):
    with pytest.raises(QasmError, match="bad angle expression"):
        _parse_angle(text)


@pytest.mark.parametrize("angle", ["2**2**4", "9**9**9"])
def test_powers_are_refused_naming_the_line(angle):
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
        f"rz({angle}) q[0];\n"
    )
    with pytest.raises(QasmError, match=r"line 4: .*rz\(" + re.escape(angle)):
        from_qasm(text)
