"""The qasm2 exporter's original angle and line rendering, as oracles.

:func:`format_angle` is the exporter's original ``_format_angle``: it
scans every ``num`` in ``-16*denom..16*denom`` for each denominator,
about 1,700 steps for an angle that is no pi fraction.
:func:`eval_angle` is how the importer once read the text back: with
``pi`` spelled out, Python evaluated it.  It is only ever handed text
:func:`format_angle` produced.  :func:`to_qasm` renders every gate on
its own line by line, with no memo.  ``tests/emit/test_qasm2_angles.py``
and ``tests/differential/test_qasm2_render.py`` difference the package
against them.
"""

import math

from repro.emit.qasm2 import _gate_to_qasm


def format_angle(value: float) -> str:
    """Render an angle, using pi fractions when exact (the full scan)."""
    for denom in (1, 2, 3, 4, 6, 8, 16):
        for num in range(-16 * denom, 16 * denom + 1):
            if num == 0:
                continue
            if abs(value - num * math.pi / denom) < 1e-12:
                sign = "-" if num < 0 else ""
                num = abs(num)
                if num == denom:
                    return f"{sign}pi"
                if denom == 1:
                    return f"{sign}{num}*pi"
                if num == 1:
                    return f"{sign}pi/{denom}"
                return f"{sign}{num}*pi/{denom}"
    if abs(value) < 1e-12:
        return "0"
    return repr(value)


def eval_angle(text: str) -> float:
    """The float Python's arithmetic gives for exporter-made angle text."""
    return float(eval(text.replace("pi", repr(math.pi)), {"__builtins__": {}}))


def to_qasm(circuit) -> str:
    """OpenQASM 2.0 text with every gate rendered on its own."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{max(circuit.num_qubits, 1)}];",
    ]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    lines.extend(_gate_to_qasm(gate) for gate in circuit.gates)
    return "\n".join(lines) + "\n"
