"""Q# backend — the Q# dialect and the Fig. 10 operation emitter.

This module is the source of truth for the Q# dialect: the gate
vocabulary (:func:`gate_to_qsharp`), the operation frame
:func:`operation_code` writes (a self-adjointable operation over a
``Qubit[]`` register, Fig. 10) and the strict parser that reads both
back (:func:`parse_operation_body`).  :mod:`repro.frameworks.qsharp`
assembles the Figs. 9–10 programs on top of it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Tuple

from .base import EmitterError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

_QSHARP_NAMES = {
    "h": "H",
    "x": "X",
    "y": "Y",
    "z": "Z",
    "s": "S",
    "t": "T",
    "cx": "CNOT",
    "cz": "CZ",
    "ccx": "CCNOT",
    "swap": "SWAP",
}
_ADJOINT_NAMES = {"sdg": "S", "tdg": "T"}


class QSharpError(EmitterError):
    """Raised for unexportable gates or malformed generated code.

    Subclasses :class:`repro.emit.EmitterError` (itself a
    ``ValueError``) so registry dispatch — including
    :meth:`repro.compiler.CompilationResult.emit` — uniformly
    translates Q# backend failures into :class:`EmissionError`.
    """


def gate_to_qsharp(gate) -> str:
    """One Q# statement for a core gate."""
    if gate.name in _ADJOINT_NAMES:
        base = _ADJOINT_NAMES[gate.name]
        args = ", ".join(f"qubits[{q}]" for q in gate.qubits)
        return f"(Adjoint {base})({args});"
    name = _QSHARP_NAMES.get(gate.name)
    if name is None:
        raise QSharpError(f"gate {gate.name!r} has no Q# primitive form")
    args = ", ".join(f"qubits[{q}]" for q in gate.qubits)
    return f"{name}({args});"


def operation_code(
    circuit: "QuantumCircuit",
    name: str = "CompiledOperation",
    namespace: str = "Repro.Quantum.PermOracle",
) -> str:
    """Render a circuit as a self-adjointable Q# operation (Fig. 10).

    Args:
        circuit: the compiled circuit to render.
        name: the Q# operation name.
        namespace: the Q# namespace wrapping the operation.

    Returns:
        The Q# source text.
    """
    # a Q# statement depends on the gate's name and qubits alone
    rendered = {}
    body_lines = []
    for gate in circuit.gates:
        key = (gate.name, gate.qubits)
        line = rendered.get(key)
        if line is None:
            line = rendered[key] = f"            {gate_to_qsharp(gate)}"
        body_lines.append(line)
    body = "\n".join(body_lines)
    return f"""namespace {namespace} {{
    open Microsoft.Quantum.Primitive;

    operation {name}
        (qubits : Qubit[]) :
        () {{
        body {{
{body}
        }}
        adjoint auto
        controlled auto
        controlled adjoint auto
    }}
}}"""


#: Every frame line :func:`operation_code` writes.
_FRAME_RE = re.compile(
    r"^(?:|\}|namespace [\w.]+ \{|open [\w.]+;|operation \w+"
    r"|\(qubits : Qubit\[\]\) :|\(\) \{|body \{"
    r"|adjoint auto|controlled auto|controlled adjoint auto)$"
)
#: One :func:`gate_to_qsharp` statement.
_STMT_RE = re.compile(
    r"^(?:\(Adjoint (?P<adj>[ST])\)|(?P<name>[A-Z]+))"
    r"\((?P<args>qubits\[\d+\](?:, qubits\[\d+\])*)\);$"
)
#: One ``qubits[i]`` operand; :meth:`QSharpEmitter.parse` reads widths with it.
_INDEX_RE = re.compile(r"qubits\[(\d+)\]")
#: Qubit count of each multi-qubit primitive (the rest take one).
_ARITY = {"cx": 2, "cz": 2, "ccx": 3, "swap": 2}


def parse_operation_body(code: str, num_qubits: int) -> "QuantumCircuit":
    """Parse a generated operation back into a circuit.

    Strict: accepts exactly the lines :func:`operation_code` writes —
    its frame (namespace, ``open``, ``operation``, signature, ``body``,
    the ``adjoint``/``controlled`` lines and braces) and one
    :func:`gate_to_qsharp` statement per line.

    Args:
        code: the operation source text.
        num_qubits: width of the ``qubits`` register.

    Returns:
        The circuit of the operation's gate statements.

    Raises:
        QSharpError: for any other line, a gate with the wrong number
            of qubits, or a repeated or out-of-range qubit index; the
            message names the 1-based line number and its text.
    """
    from ..core.circuit import QuantumCircuit

    inverse_names = {v: k for k, v in _QSHARP_NAMES.items()}
    circuit = QuantumCircuit(num_qubits)
    for number, raw in enumerate(code.splitlines(), 1):
        line = raw.strip()
        if _FRAME_RE.match(line):
            continue
        match = _STMT_RE.match(line)
        if match is None:
            name = None
        elif match.group("adj"):
            name = {"S": "sdg", "T": "tdg"}[match.group("adj")]
        else:
            name = inverse_names.get(match.group("name"))
        if name is None:
            raise QSharpError(
                f"line {number}: not a generated Q# line: {line!r}"
            )
        qubits = [int(i) for i in _INDEX_RE.findall(match.group("args"))]
        arity = _ARITY.get(name, 1)
        if len(qubits) != arity:
            raise QSharpError(
                f"line {number}: {match.group('name') or name} takes "
                f"{arity} qubit(s), got {len(qubits)}: {line!r}"
            )
        try:
            if name in ("cx", "cz", "ccx"):
                circuit._add(name, qubits[-1:], qubits[:-1])
            else:
                circuit._add(name, qubits)
        except ValueError as exc:
            raise QSharpError(f"line {number}: {exc}: {line!r}") from exc
    return circuit


class QSharpEmitter:
    """The ``qsharp`` registry backend (Fig. 10 operation source)."""

    name = "qsharp"
    description = "Q# operation source (Fig. 10 shape, adjoint auto)"
    file_extension = ".qs"
    aliases: Tuple[str, ...] = ("qs", "q#")

    def emit(self, circuit: "QuantumCircuit", **opts) -> str:
        """Render ``circuit`` as a Q# operation.

        Options: ``name`` (operation name, default
        ``CompiledOperation``) and ``namespace``.
        """
        name = opts.pop("name", "CompiledOperation")
        namespace = opts.pop("namespace", "Repro.Quantum.PermOracle")
        if opts:
            raise EmitterError(
                "qsharp emitter takes only name=/namespace= options, "
                f"got {sorted(opts)}"
            )
        return operation_code(circuit, name=name, namespace=namespace)

    def parse(self, text: str, num_qubits: "int | None" = None) -> "QuantumCircuit":
        """Import a generated operation's gate statements.

        The Q# operation signature carries no register width, so by
        default it is *inferred* as the highest ``qubits[i]`` index
        plus one — exact for synthesized permutation oracles (which
        touch every wire), but an undercount for circuits whose top
        wires are idle.  Pass ``num_qubits=`` when the true width is
        known (``repro.emit.parse(text, "qsharp", num_qubits=5)``).
        """
        if num_qubits is None:
            indices = [int(i) for i in _INDEX_RE.findall(text)]
            num_qubits = max(indices) + 1 if indices else 0
        return parse_operation_body(text, num_qubits)


#: The backend instance listed in :mod:`repro.emit.registry`.
EMITTER = QSharpEmitter()
