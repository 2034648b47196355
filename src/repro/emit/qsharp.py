"""Q# backend — the Fig. 10 oracle operation as a registry emitter.

The emitted text is the Fig. 10 operation (a self-adjointable
operation over a ``Qubit[]`` register); :mod:`repro.frameworks.qsharp`
renders its oracle operations through this registry entry.  The gate
vocabulary and the statement parser stay in
:mod:`repro.frameworks.qsharp`, the source of truth for the Q#
dialect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from .base import EmitterError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit


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
    from ..frameworks.qsharp import gate_to_qsharp

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
        from ..frameworks.qsharp import _INDEX_RE, parse_operation_body

        if num_qubits is None:
            indices = [int(i) for i in _INDEX_RE.findall(text)]
            num_qubits = max(indices) + 1 if indices else 0
        return parse_operation_body(text, num_qubits)


#: The backend instance listed in :mod:`repro.emit.registry`.
EMITTER = QSharpEmitter()
