"""MCT-network mapping into Clifford+T — the ``rptm`` command.

Lowers multiple-controlled Toffoli/Z gates to the Clifford+T set:

* 0/1 controls: direct gates;
* 2 controls: the 7-T CCX/CCZ decomposition;
* k >= 3 controls: Barenco ladders [40] —
  - with *clean* ancillae: compute ladder + center CCX + uncompute
    ladder (2(k-2)+1 Toffolis).  With ``relative_phase=True`` the
    ladder Toffolis become RCCX (T-count 4), the provably-safe
    substitution of Maslov [42]; T-count drops from 14(k-2)+7 to
    8(k-2)+7.
  - with *dirty* (borrowed) ancillae: the alternating V-chain that
    works for any initial ancilla value (4(k-2) Toffolis).

:func:`map_to_clifford_t` maps a whole :class:`ReversibleCircuit` (or
quantum circuit with mcx/mcz gates), borrowing idle lines as dirty
ancillae before widening the register with clean ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from ..synthesis.reversible import ReversibleCircuit
from .clifford_t import ccx_clifford_t
from .relative_phase import rccx, rccx_dagger


class MappingError(RuntimeError):
    """Raised when a gate cannot be lowered."""


def mcx_clean_ancilla(
    controls: Sequence[int],
    target: int,
    ancillae: Sequence[int],
    num_qubits: int,
    relative_phase: bool = True,
) -> QuantumCircuit:
    """k-control X via the clean-ancilla ladder (k-2 ancillae).

    Ancillae must be |0> on entry and are returned to |0>.
    """
    k = len(controls)
    if k < 3:
        raise ValueError("ladder needs at least 3 controls")
    if len(ancillae) < k - 2:
        raise ValueError(f"need {k - 2} clean ancillae")
    circ = QuantumCircuit(num_qubits, name="mcx")
    ladder: List[Tuple[int, int, int]] = []
    # a[0] = c0 & c1; a[i] = a[i-1] & c[i+1]
    ladder.append((controls[0], controls[1], ancillae[0]))
    for i in range(k - 3):
        ladder.append((controls[i + 2], ancillae[i], ancillae[i + 1]))
    make = rccx if relative_phase else (
        lambda a, b, t, n: ccx_clifford_t(a, b, t, n)
    )
    unmake = rccx_dagger if relative_phase else (
        lambda a, b, t, n: ccx_clifford_t(a, b, t, n)
    )
    for c1, c2, tgt in ladder:
        circ.compose(make(c1, c2, tgt, num_qubits))
    circ.compose(
        ccx_clifford_t(controls[-1], ancillae[k - 3], target, num_qubits)
    )
    for c1, c2, tgt in reversed(ladder):
        circ.compose(unmake(c1, c2, tgt, num_qubits))
    return circ


def mcx_dirty_ancilla(
    controls: Sequence[int],
    target: int,
    ancillae: Sequence[int],
    num_qubits: int,
) -> QuantumCircuit:
    """k-control X via the dirty-ancilla V-chain (k-2 borrowed lines).

    Works for arbitrary initial ancilla values and restores them:
    the zig-zag sequence S = [G_k .. G_3, G_2, G_3 .. G_{k-1}] applied
    twice, 4(k-2) Toffolis total.
    """
    k = len(controls)
    if k < 3:
        raise ValueError("V-chain needs at least 3 controls")
    if len(ancillae) < k - 2:
        raise ValueError(f"need {k - 2} dirty ancillae")
    # G_i for i in 2..k: G_2 = CCX(c0, c1, a0);
    # G_i = CCX(c_{i-1}, a_{i-3}, a_{i-2}) for 2 < i < k;
    # G_k = CCX(c_{k-1}, a_{k-3}, target)
    def gate(i: int) -> Tuple[int, int, int]:
        if i == 2:
            return (controls[0], controls[1], ancillae[0])
        if i == k:
            return (controls[k - 1], ancillae[k - 3], target)
        return (controls[i - 1], ancillae[i - 3], ancillae[i - 2])

    sequence = (
        [gate(i) for i in range(k, 1, -1)]
        + [gate(i) for i in range(3, k)]
    )
    circ = QuantumCircuit(num_qubits, name="mcx-dirty")
    for _ in range(2):
        for c1, c2, tgt in sequence:
            circ.compose(ccx_clifford_t(c1, c2, tgt, num_qubits))
    return circ


def map_to_clifford_t(
    circuit: Union[ReversibleCircuit, QuantumCircuit],
    relative_phase: bool = True,
    allow_extra_lines: bool = True,
    prefer_clean: bool = True,
) -> QuantumCircuit:
    """Lower an MCT network (or mcx/mcz-bearing circuit) to Clifford+T.

    Strategy per k-control gate (k >= 3): use shared clean ancilla
    lines (widening the register) for the cheap ladder — with
    ``relative_phase=True`` the ladder Toffolis are RCCX, cutting the
    T-count from 14(k-2)+7 to 8(k-2)+7.  With ``prefer_clean=False``
    (or when widening is forbidden) idle circuit lines are borrowed as
    dirty ancillae instead (V-chain, 4(k-2) full Toffolis).  The output
    satisfies :meth:`QuantumCircuit.is_clifford_t`.

    This is the shell's ``rptm`` command and the pass manager's
    :class:`~repro.pipeline.MapToCliffordTPass`.

    Args:
        circuit: the MCT cascade or multi-controlled-gate circuit.
        relative_phase: use RCCX ladder Toffolis (paper's rptm [42]).
        allow_extra_lines: permit widening the register with clean
            ancillae; raise :class:`MappingError` when mapping is
            impossible without them.
        prefer_clean: prefer clean widening over borrowing idle lines
            as dirty ancillae.

    Returns:
        A pure Clifford+T circuit acting as ``|x>|0> ->
        e^{i phi(x)}|P(x)>|0>`` on the original lines.
    """
    if isinstance(circuit, ReversibleCircuit):
        source = circuit.to_quantum_circuit()
    else:
        source = circuit
    width = source.num_qubits
    max_k = 0
    for gate in source.gates:
        if gate.name in ("mcx", "mcz"):
            max_k = max(max_k, len(gate.controls))
    extra_needed = 0
    if max_k >= 3:
        if prefer_clean and allow_extra_lines:
            extra_needed = max_k - 2
        else:
            idle_worst = width - (max_k + 1)
            extra_needed = max(0, (max_k - 2) - idle_worst)
    if extra_needed and not allow_extra_lines:
        raise MappingError(
            f"mapping needs {extra_needed} extra ancilla lines"
        )
    total = width + extra_needed
    out = QuantumCircuit(total, source.num_clbits, source.name + "_ct")
    clean = list(range(width, total))  # kept clean between gates
    for gate in source.gates:
        _lower_gate(gate, out, width, clean, relative_phase)
    return out


def _lower_gate(
    gate: Gate,
    out: QuantumCircuit,
    width: int,
    clean: List[int],
    relative_phase: bool,
) -> None:
    name = gate.name
    if name in ("mcx", "mcz", "ccx", "ccz"):
        controls = list(gate.controls)
        target = gate.targets[0]
        is_z = name.endswith("z")
        if is_z:
            out.h(target)
        k = len(controls)
        if k == 2:
            out.compose(
                ccx_clifford_t(controls[0], controls[1], target, out.num_qubits)
            )
        else:
            busy = set(controls) | {target}
            dirty = [q for q in range(width) if q not in busy]
            need = k - 2
            if len(clean) >= need:
                sub = mcx_clean_ancilla(
                    controls, target, clean[:need], out.num_qubits,
                    relative_phase=relative_phase,
                )
            elif len(dirty) >= need:
                sub = mcx_dirty_ancilla(
                    controls, target, dirty[:need], out.num_qubits
                )
            else:
                raise MappingError(
                    f"no ancillae available for {k}-control gate"
                )
            out.compose(sub)
        if is_z:
            out.h(target)
        return
    if name == "cz":
        out.h(gate.targets[0])
        out.cx(gate.controls[0], gate.targets[0])
        out.h(gate.targets[0])
        return
    if name in (
        "id", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg",
        "cx", "swap", "measure", "reset", "barrier",
    ):
        out.append(gate)
        return
    raise MappingError(f"cannot lower gate {name!r} to Clifford+T")
