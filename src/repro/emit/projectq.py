"""ProjectQ backend — the eDSL replay script as a registry emitter.

The emitted text is a Python script that replays the circuit through
:mod:`repro.frameworks.projectq`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from .base import EmitterError, NonFiniteAngleError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

#: ProjectQ eDSL operator per core gate name (single target, no
#: controls unless noted).
_PROJECTQ_OPS = {
    "h": "H",
    "x": "X",
    "y": "Y",
    "z": "Z",
    "s": "S",
    "sdg": "Sdag",
    "t": "T",
    "tdg": "Tdag",
}
_PROJECTQ_ROTATIONS = {"rx": "Rx", "ry": "Ry", "rz": "Rz", "p": "Ph"}


def _gate_to_projectq(gate) -> str:
    """Render one core gate as a ProjectQ eDSL statement.

    Barriers never reach this function — :meth:`ProjectQEmitter.emit`
    filters them out of the statement list.
    """
    name, controls, targets = gate.name, gate.controls, gate.targets
    if name == "measure":
        return f"Measure | q[{targets[0]}]"
    if name in _PROJECTQ_OPS and not controls:
        return f"{_PROJECTQ_OPS[name]} | q[{targets[0]}]"
    if name in _PROJECTQ_ROTATIONS and not controls:
        op, angle = _PROJECTQ_ROTATIONS[name], gate.params[0]
        if not math.isfinite(angle):
            raise NonFiniteAngleError(name, angle)
        return f"{op}({angle!r}) | q[{targets[0]}]"
    if name == "cx":
        return f"CNOT | (q[{controls[0]}], q[{targets[0]}])"
    if name == "cz":
        return f"CZ | (q[{controls[0]}], q[{targets[0]}])"
    if name == "ccx":
        return (
            f"Toffoli | (q[{controls[0]}], q[{controls[1]}], "
            f"q[{targets[0]}])"
        )
    if name == "swap":
        return f"Swap | (q[{targets[0]}], q[{targets[1]}])"
    raise EmitterError(
        f"gate {name!r} (controls={controls}) has no ProjectQ eDSL form"
    )


class ProjectQEmitter:
    """The ``projectq`` registry backend (eDSL replay script)."""

    name = "projectq"
    description = "ProjectQ eDSL replay script (repro.frameworks.projectq)"
    file_extension = ".py"
    aliases: Tuple[str, ...] = ()

    def emit(self, circuit: "QuantumCircuit") -> str:
        """Render ``circuit`` as a ProjectQ replay script."""
        statements = [
            _gate_to_projectq(gate)
            for gate in circuit.gates
            if gate.name != "barrier"
        ]
        ops = sorted(
            {s.split(" ", 1)[0].partition("(")[0] for s in statements}
            | {"MainEngine"}
        )
        lines = [
            f'"""ProjectQ replay of circuit {circuit.name!r} '
            '(generated by repro.compile)."""',
            "",
            "from repro.frameworks.projectq import (",
        ]
        lines.extend(f"    {op}," for op in ops)
        lines.append(")")
        lines.append("")
        lines.append("eng = MainEngine()")
        lines.append(
            f"q = eng.allocate_qureg({circuit.num_qubits})"
        )
        lines.extend(statements)
        lines.append("eng.flush()")
        return "\n".join(lines) + "\n"


#: The backend instance listed in :mod:`repro.emit.registry`.
EMITTER = ProjectQEmitter()
