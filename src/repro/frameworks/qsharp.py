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
  :func:`repro.emit.qsharp.parse_operation_body` re-parses emitted Q#
  back into a circuit so tests can verify text == semantics.

The Q# dialect itself (gate statements, operation frame, parser) lives
in :mod:`repro.emit.qsharp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..boolean.permutation import BitPermutation
from ..core.circuit import QuantumCircuit
from ..emit.qsharp import parse_operation_body
from ..pipeline import Pipeline

#: perfbench's Fig. 10 check imports ``parse_operation_body`` from here.
__all__ = [
    "QSharpOperation",
    "permutation_oracle_operation",
    "hidden_shift_program",
    "validate_program",
    "parse_operation_body",
]


@dataclass
class QSharpOperation:
    """Generated Q# operation together with its executable circuit."""

    name: str
    code: str
    circuit: QuantumCircuit


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
    pipeline: Optional[Pipeline] = None,
    target=None,
) -> QSharpOperation:
    """RevKit-as-preprocessor: synthesize ``pi`` and emit Q# (Fig. 10).

    Dispatches through :func:`repro.compile` with the ``qsharp``
    target — chosen synthesis (default transformation-based [43]),
    ``revsimp``, Clifford+T mapping [42], gate cancellation — then
    generates the Q# text of operation ``PermutationOracle`` from the
    compiled circuit.  Repeated calls for the same permutation replay
    the pass manager's cached results.

    Args:
        permutation: the oracle permutation ``pi``.
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
    return _operation_from_circuit("PermutationOracle", result.circuit)


def hidden_shift_program(
    permutation: Union[BitPermutation, Sequence[int]], num_vars: int
) -> str:
    """The full two-namespace Q# program of Figs. 9 and 10."""
    oracle = permutation_oracle_operation(permutation)
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
# structural validation
# ----------------------------------------------------------------------
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
