"""OpenQASM 3.0 backend.

Emits the ``stdgates.inc`` vocabulary with OpenQASM 3 declarations
(``qubit[n] q;`` / ``bit[n] c;``) and measurement assignment syntax
(``c[0] = measure q[0];``).  Unlike the 2.0 exporter, gates outside
the include vocabulary do not require pre-mapping: multiple-controlled
X/Z/phase gates and adjoints are expressed with the language's
``ctrl(k) @`` / ``inv @`` gate modifiers, so reversible-level MCT
cascades emit directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..core.gates import Gate
from .base import EmitterError
from .qasm2 import _format_angle

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

#: Gates present verbatim in stdgates.inc: canonical name →
#: (qasm3 name, expected control count).
_STD_NAMES = {
    "id": ("id", 0),
    "h": ("h", 0),
    "x": ("x", 0),
    "y": ("y", 0),
    "z": ("z", 0),
    "s": ("s", 0),
    "sdg": ("sdg", 0),
    "t": ("t", 0),
    "tdg": ("tdg", 0),
    "sx": ("sx", 0),
    "rx": ("rx", 0),
    "ry": ("ry", 0),
    "rz": ("rz", 0),
    "p": ("p", 0),
    "cx": ("cx", 1),
    "cy": ("cy", 1),
    "cz": ("cz", 1),
    "ch": ("ch", 1),
    "crz": ("crz", 1),
    "cp": ("cp", 1),
    "swap": ("swap", 0),
    "ccx": ("ccx", 2),
    "cswap": ("cswap", 1),
}

#: Gates expressed through modifiers: name →
#: (modifier, base gate, expected control count).
_MODIFIER_FORMS = {
    "sxdg": ("inv @", "sx", 0),
    "ccz": ("ctrl(2) @", "z", 2),
}


def _gate_to_qasm3(gate: Gate) -> str:
    """Render one core gate as an OpenQASM 3 statement."""
    if gate.name == "measure":
        return f"c[{gate.cbits[0]}] = measure q[{gate.targets[0]}];"
    if gate.name == "reset":
        return f"reset q[{gate.targets[0]}];"
    if gate.name == "barrier":
        wires = ", ".join(f"q[{q}]" for q in gate.targets)
        return f"barrier {wires};"
    wires = ", ".join(f"q[{q}]" for q in gate.qubits)
    params = ""
    if gate.params:
        params = "(" + ", ".join(
            _format_angle(p) for p in gate.params
        ) + ")"
    # every vocabulary entry fixes its control count; unexpected
    # controls must raise, never be dropped into the operand list
    if gate.name in _MODIFIER_FORMS:
        modifier, base, n_controls = _MODIFIER_FORMS[gate.name]
        if len(gate.controls) == n_controls:
            return f"{modifier} {base}{params} {wires};"
    elif gate.name in ("mcx", "mcz", "mcp"):
        base = gate.name[2:]
        return f"ctrl({len(gate.controls)}) @ {base}{params} {wires};"
    elif gate.name in _STD_NAMES:
        name, n_controls = _STD_NAMES[gate.name]
        if len(gate.controls) == n_controls:
            return f"{name}{params} {wires};"
    raise EmitterError(
        f"gate {gate.name!r} (controls={gate.controls}) has no "
        "OpenQASM 3.0 form"
    )


def to_qasm3(circuit: "QuantumCircuit") -> str:
    """Serialize a circuit as OpenQASM 3.0 text."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{max(circuit.num_qubits, 1)}] q;",
    ]
    if circuit.num_clbits:
        lines.append(f"bit[{circuit.num_clbits}] c;")
    for gate in circuit.gates:
        lines.append(_gate_to_qasm3(gate))
    return "\n".join(lines) + "\n"


class Qasm3Emitter:
    """The ``qasm3`` registry backend (OpenQASM 3.0, stdgates.inc)."""

    name = "qasm3"
    description = "OpenQASM 3.0 (stdgates.inc + ctrl/inv gate modifiers)"
    file_extension = ".qasm3"
    aliases: Tuple[str, ...] = ("openqasm3",)

    def emit(self, circuit: "QuantumCircuit", **opts) -> str:
        """Serialize ``circuit`` as OpenQASM 3.0 text."""
        if opts:
            raise EmitterError(
                f"qasm3 emitter takes no options, got {sorted(opts)}"
            )
        return to_qasm3(circuit)


#: The backend instance listed in :mod:`repro.emit.registry`.
EMITTER = Qasm3Emitter()
