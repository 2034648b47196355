"""OpenQASM 2.0 backend: export *and* round-trip import.

The paper positions QASM/OpenQASM as the "assembly language" of quantum
computing (Sec. II).  The exporter emits standard ``qelib1.inc``
vocabulary; mcx/mcz gates must be mapped to Clifford+T (or at least to
ccx) before export.  The importer supports the subset the exporter
emits, which is enough for round-trip tests (emit → parse → emit is a
fixed point) and for feeding external tools.

This module is the implementation behind the ``qasm2`` registry entry.
"""

from __future__ import annotations

import math
import operator
import re
from typing import TYPE_CHECKING, List, Tuple

from ..core.gates import ROTATION_GATES, Gate
from .base import EmitterError, NonFiniteAngleError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

_EXPORT_NAMES = {
    "id": "id",
    "h": "h",
    "x": "x",
    "y": "y",
    "z": "z",
    "s": "s",
    "sdg": "sdg",
    "t": "t",
    "tdg": "tdg",
    "sx": "sx",
    "sxdg": "sxdg",
    "rx": "rx",
    "ry": "ry",
    "rz": "rz",
    "p": "u1",
    "cx": "cx",
    "cy": "cy",
    "cz": "cz",
    "ch": "ch",
    "crz": "crz",
    "cp": "cu1",
    "swap": "swap",
    "ccx": "ccx",
    "ccz": "ccz",
    "cswap": "cswap",
}

_IMPORT_NAMES = {v: k for k, v in _EXPORT_NAMES.items()}
_IMPORT_NAMES["reset"] = "reset"

#: number of control qubits per exported name
_NUM_CONTROLS = {
    "cx": 1,
    "cy": 1,
    "cz": 1,
    "ch": 1,
    "crz": 1,
    "cp": 1,
    "ccx": 2,
    "ccz": 2,
    "cswap": 1,
}


class QasmError(EmitterError):
    """Raised on malformed OpenQASM input or unexportable gates."""


def _gate_to_qasm(gate: Gate) -> str:
    """Render one core gate as an OpenQASM 2.0 statement."""
    if gate.name == "measure":
        return f"measure q[{gate.targets[0]}] -> c[{gate.cbits[0]}];"
    if gate.name == "reset":
        return f"reset q[{gate.targets[0]}];"
    if gate.name == "barrier":
        wires = ", ".join(f"q[{q}]" for q in gate.targets)
        return f"barrier {wires};"
    if gate.name == "ccz":
        # qelib1 has no ccz; emit h-ccx-h equivalent inline as three ops
        c1, c2 = gate.controls
        tgt = gate.targets[0]
        return (
            f"h q[{tgt}];\nccx q[{c1}], q[{c2}], q[{tgt}];\nh q[{tgt}];"
        )
    name = _EXPORT_NAMES.get(gate.name)
    if name is None:
        raise QasmError(
            f"gate {gate.name!r} has no OpenQASM 2.0 form; map it first"
        )
    params = ""
    if gate.params:
        params = ", ".join(_format_angle(p, gate.name) for p in gate.params)
        params = f"({params})"
    wires = ", ".join(f"q[{q}]" for q in gate.qubits)
    return f"{name}{params} {wires};"


def _format_angle(value: float, gate: str) -> str:
    """Render an angle of ``gate``, using pi fractions when exact.

    Raises:
        NonFiniteAngleError: for an inf or nan angle.
    """
    # multiples of pi/denom lie at least pi/16 apart, so only the
    # nearest one can lie within 1e-12
    if abs(value) < 17 * math.pi:
        for denom in (1, 2, 3, 4, 6, 8, 16):
            num = round(value * denom / math.pi)
            if not 0 < abs(num) <= 16 * denom:
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
    if not math.isfinite(value):
        raise NonFiniteAngleError(gate, value)
    return repr(value)


_GATE_RE = re.compile(
    r"^(?P<name>[a-z][a-z0-9]*)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>.*);$"
)
_MEASURE_RE = re.compile(
    r"^measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\];$"
)
_OPERAND_RE = re.compile(r"(\w+)\[(\d+)\]")
#: a whole operand list: indexed wires only (no register broadcast)
_OPERANDS_RE = re.compile(r"\w+\[\d+\](?:\s*,\s*\w+\[\d+\])*")


#: angle tokens: a float literal, ``pi``, an operator, or a bad character
_ANGLE_TOKEN_RE = re.compile(
    r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(pi\b)|([-+*/()])|(\S))"
)
#: binary operators by binding level, loosest first
_ANGLE_LEVELS = (
    {"+": operator.add, "-": operator.sub},
    {"*": operator.mul, "/": operator.truediv},
)


def _parse_angle(text: str) -> float:
    """Evaluate an angle expression over floats, ``pi`` and ``+ - * /``.

    Binary operators associate to the left and unary signs bind
    tightest, as in Python, so the value is the float Python's own
    arithmetic gives.  Anything else (``**`` included) raises
    :class:`QasmError`.
    """
    bad = QasmError(f"bad angle expression {text.strip()!r}")
    tokens = ["end"]  # read by popping from the end
    for number, pi, op, other in reversed(_ANGLE_TOKEN_RE.findall(text)):
        if other:
            raise bad
        tokens.append(float(number) if number else math.pi if pi else op)

    def expression(level=0):
        if level == len(_ANGLE_LEVELS):
            return factor()
        value = expression(level + 1)
        while tokens[-1] in _ANGLE_LEVELS[level]:
            op = _ANGLE_LEVELS[level][tokens.pop()]
            value = op(value, expression(level + 1))
        return value

    def factor():
        token = tokens.pop()
        if token in ("+", "-"):
            return factor() if token == "+" else -factor()
        if token == "(":
            value = expression()
            if tokens.pop() == ")":
                return value
        elif isinstance(token, float):
            return token
        raise bad

    try:
        value = expression()
    except (ZeroDivisionError, RecursionError) as exc:
        raise bad from exc
    if tokens != ["end"]:
        raise bad
    return value


def _wire_lookup(registers, kind):
    """Build a ``(name, index) -> flat wire`` resolver for one kind.

    Registers declared in order are flattened with running offsets, so
    external files with named (or multiple) ``qreg``/``creg``
    declarations import onto the single flat register this package
    uses.  Unknown register names raise instead of silently dropping
    operands.
    """

    def resolve(name, index):
        if name not in registers:
            declared = ", ".join(registers) or "(none)"
            raise QasmError(
                f"unknown {kind} register {name!r}; declared: {declared}"
            )
        offset, size = registers[name]
        if index >= size:
            raise QasmError(
                f"{kind} index {name}[{index}] outside the register's "
                f"size {size}"
            )
        return offset + index

    return resolve


def _read_statement(circuit, line, qubit_of, clbit_of) -> None:
    """Append the gate or measurement of one body statement."""
    match = _MEASURE_RE.match(line)
    if match:
        circuit.measure(
            qubit_of(match.group(1), int(match.group(2))),
            clbit_of(match.group(3), int(match.group(4))),
        )
        return
    match = _GATE_RE.match(line)
    if not match:
        raise QasmError("not a gate or measure statement")
    qasm_name = match.group("name")
    args = match.group("args").strip()
    if not _OPERANDS_RE.fullmatch(args):
        raise QasmError(
            "operands must be indexed wires like q[0], separated by commas"
        )
    qubits = [
        qubit_of(reg, int(idx)) for reg, idx in _OPERAND_RE.findall(args)
    ]
    if qasm_name == "barrier":
        circuit.barrier(*qubits)
        return
    name = _IMPORT_NAMES.get(qasm_name)
    if name is None:
        raise QasmError(f"unsupported gate {qasm_name!r}")
    texts = match.group("params")
    texts = texts.split(",") if texts is not None else []
    n_ctl = _NUM_CONTROLS.get(name, 0)
    arity = n_ctl + (2 if name in ("swap", "cswap") else 1)
    n_params = 1 if name in ROTATION_GATES else 0
    if len(qubits) != arity or len(texts) != n_params:
        raise QasmError(
            f"{qasm_name} takes {arity} operand(s) and {n_params} "
            "parameter(s)"
        )
    params = tuple(_parse_angle(p) for p in texts)
    targets, controls = tuple(qubits[n_ctl:]), tuple(qubits[:n_ctl])
    circuit.append(Gate(name, targets, controls, params))


class Qasm2Emitter:
    """The ``qasm2`` registry backend (OpenQASM 2.0, round-trip)."""

    name = "qasm2"
    description = "OpenQASM 2.0 (qelib1.inc vocabulary, round-trip import)"
    file_extension = ".qasm"
    aliases: Tuple[str, ...] = ("qasm", "openqasm2")

    def emit(self, circuit: "QuantumCircuit") -> str:
        """Serialize ``circuit`` as OpenQASM 2.0 text."""
        lines = [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            f"qreg q[{max(circuit.num_qubits, 1)}];",
        ]
        if circuit.num_clbits:
            lines.append(f"creg c[{circuit.num_clbits}];")
        # a params- and cbit-free line depends on the shape alone (1 == 1.0)
        rendered = {}
        for gate in circuit.gates:
            if gate.params or gate.cbits:
                lines.append(_gate_to_qasm(gate))
                continue
            key = (gate.name, gate.controls, gate.targets)
            line = rendered.get(key)
            if line is None:
                line = rendered[key] = _gate_to_qasm(gate)
            lines.append(line)
        return "\n".join(lines) + "\n"

    def parse(self, text: str) -> "QuantumCircuit":
        """Parse OpenQASM 2.0 text (the subset :meth:`emit` writes).

        Externally produced files are welcome too: named and multiple
        ``qreg``/``creg`` declarations flatten onto one register in
        declaration order, and operands referencing undeclared registers
        raise :class:`QasmError` instead of being dropped.  Any statement
        that does not read — an unsupported gate, the wrong operand or
        parameter count, a register broadcast, an index outside its
        register — raises :class:`QasmError` naming the 1-based line number
        and its text.
        """
        from ..core.circuit import QuantumCircuit

        qregs = {}
        cregs = {}
        num_qubits = 0
        num_clbits = 0
        body: List[Tuple[int, str]] = []
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("//")[0].strip()
            if not line:
                continue
            if line.startswith("OPENQASM"):
                if not re.match(r"^OPENQASM\s+2(\.\d+)?\s*;", line):
                    raise QasmError(
                        f"line {number}: OpenQASM 3 import is not supported; "
                        f"only the OpenQASM 2.0 subset parses: {line!r}"
                    )
                continue
            if line.startswith("include"):
                continue
            match = re.match(r"^qreg\s+(\w+)\[(\d+)\];$", line)
            if match:
                qregs[match.group(1)] = (num_qubits, int(match.group(2)))
                num_qubits += int(match.group(2))
                continue
            match = re.match(r"^creg\s+(\w+)\[(\d+)\];$", line)
            if match:
                cregs[match.group(1)] = (num_clbits, int(match.group(2)))
                num_clbits += int(match.group(2))
                continue
            body.append((number, line))

        qubit_of = _wire_lookup(qregs, "quantum")
        clbit_of = _wire_lookup(cregs, "classical")
        circuit = QuantumCircuit(num_qubits, num_clbits)
        for number, line in body:
            try:
                _read_statement(circuit, line, qubit_of, clbit_of)
            except ValueError as exc:  # QasmError, or a gate the IR refuses
                raise QasmError(f"line {number}: {exc}: {line!r}") from exc
        return circuit


#: The backend instance listed in :mod:`repro.emit.registry`.
EMITTER = Qasm2Emitter()
