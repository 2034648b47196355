"""Q# code generation — the RevKit/Q# interop of Sec. VIII.

In the paper's second tool flow RevKit acts as a *pre-processor*: it
synthesizes the permutation oracle and emits it as native Q# source
(Fig. 10), which the Q# compiler then builds against the hidden-shift
driver (Fig. 9).  The Q# toolchain itself cannot run in this
environment, so this module

* generates the same artifacts as text —
  :func:`permutation_oracle_operation` mirrors Fig. 10's
  ``PermutationOracle`` operation (H/T/T'/CNOT body, ``adjoint auto``)
  and :func:`hidden_shift_program` the full two-namespace program; and
* keeps the source of truth executable — every generated operation
  carries its :class:`~repro.core.circuit.QuantumCircuit`, and
  :func:`parse_operation_body` re-parses emitted Q# back into a
  circuit so tests can verify text == semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..boolean.permutation import BitPermutation
from ..core.circuit import QuantumCircuit
from ..emit.base import EmitterError
from ..pipeline import Pipeline

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


@dataclass
class QSharpOperation:
    """Generated Q# operation together with its executable circuit."""

    name: str
    code: str
    circuit: QuantumCircuit


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


def _operation_from_circuit(
    name: str,
    circuit: QuantumCircuit,
    namespace: str = "Repro.Quantum.PermOracle",
) -> QSharpOperation:
    """Emit a circuit as a self-adjointable Q# operation (Fig. 10 style).

    Internal: dispatches the text generation through the ``qsharp``
    backend of the :mod:`repro.emit` registry and bundles the result
    with the executable circuit.
    """
    from .. import emit

    code = emit.get("qsharp").emit(circuit, name=name, namespace=namespace)
    return QSharpOperation(name, code, circuit.copy())


def permutation_oracle_operation(
    permutation: Union[BitPermutation, Sequence[int]],
    name: str = "PermutationOracle",
    pipeline: Optional[Pipeline] = None,
    target=None,
) -> QSharpOperation:
    """RevKit-as-preprocessor: synthesize ``pi`` and emit Q# (Fig. 10).

    Dispatches through :func:`repro.compile` with the ``qsharp``
    target — chosen synthesis (default transformation-based [43]),
    ``revsimp``, Clifford+T mapping [42], gate cancellation — then
    generates the Q# text from the compiled circuit.  Repeated calls
    for the same permutation replay the pass manager's cached results.

    Args:
        permutation: the oracle permutation ``pi``.
        name: Q# operation name to emit.
        pipeline: pass-manager runner to execute on (fresh one with
            the shared cache by default).
        target: a :class:`repro.compiler.Target` (or preset name)
            selecting synthesis and optimization; defaults to the
            ``qsharp`` preset.

    Returns:
        The generated operation with its executable circuit attached.
    """
    from .. import compiler

    if not isinstance(permutation, BitPermutation):
        permutation = BitPermutation(list(permutation))
    if target is None:
        target = compiler.targets.QSHARP
    result = compiler.compile(permutation, target=target, pipeline=pipeline)
    return _operation_from_circuit(name, result.circuit)


def hidden_shift_program(
    permutation: Union[BitPermutation, Sequence[int]],
    num_vars: int,
    target=None,
) -> str:
    """The full two-namespace Q# program of Figs. 9 and 10.

    ``target`` selects the oracle's compilation chain exactly as on
    :func:`permutation_oracle_operation`.
    """
    oracle = permutation_oracle_operation(permutation, target=target)
    driver = f"""namespace Repro.Quantum.HiddenShift {{
    // basic operations: Hadamard, CNOT, etc
    open Microsoft.Quantum.Primitive;
    // useful lib functions and combinators
    open Microsoft.Quantum.Canon;
    // permutation defining the instance
    open Repro.Quantum.PermOracle;

    operation HiddenShift
        (Ufstar : (Qubit[] => ()),
         Ug : (Qubit[] => ()), n : Int) :
        Result[] {{
        body {{
            mutable resultArray = new Result[n];
            using (qubits = Qubit[n]) {{
                ApplyToEach(H, qubits);
                Ug(qubits);
                ApplyToEach(H, qubits);
                Ufstar(qubits);
                ApplyToEach(H, qubits);
                for (idx in 0..(n-1)) {{
                    set resultArray[idx] = MResetZ(qubits[idx]);
                }}
            }}
            Message($"result: {{resultArray}}");
            return resultArray;
        }}
    }}

    operation BentFunctionImpl
        (n : Int, qs : Qubit[]) : () {{
        body {{
            let xs = qs[0..(n-1)];
            let ys = qs[n..(2*n-1)];
            (Adjoint PermutationOracle)(ys);
            for (idx in 0..(n-1)) {{
                (Controlled Z)([xs[idx]], ys[idx]);
            }}
            PermutationOracle(ys);
        }}
    }}

    function BentFunction
        (n : Int) : (Qubit[] => ()) {{
        return BentFunctionImpl(n, _);
    }}
}}

{oracle.code}"""
    return driver


# ----------------------------------------------------------------------
# structural validation / re-parsing
# ----------------------------------------------------------------------
#: Every frame line :func:`repro.emit.qsharp.operation_code` writes.
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
#: One ``qubits[i]`` operand; :mod:`repro.emit.qsharp` reads widths with it.
_INDEX_RE = re.compile(r"qubits\[(\d+)\]")
#: Qubit count of each multi-qubit primitive (the rest take one).
_ARITY = {"cx": 2, "cz": 2, "ccx": 3, "swap": 2}


def validate_program(code: str) -> bool:
    """Structural checks: braces nest and a namespace opens first.

    No ``}`` closes below depth 0, every ``{`` is closed by the end,
    and the first ``namespace`` comes before the first ``operation``.
    """
    depth = 0
    for char in code:
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth < 0:
                return False
    if depth:
        return False
    return 0 <= code.find("namespace") < code.find("operation")


def parse_operation_body(code: str, num_qubits: int) -> QuantumCircuit:
    """Parse a generated operation back into a circuit.

    Strict: accepts exactly the lines
    :func:`repro.emit.qsharp.operation_code` writes — its frame
    (namespace, ``open``, ``operation``, signature, ``body``, the
    ``adjoint``/``controlled`` lines and braces) and one
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
