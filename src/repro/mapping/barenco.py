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
ancillae before widening the register with clean ones.  Each lowering
shape is built once on local wires by the builders below; every
placement of it on concrete wires is memoized and its immutable gates
are shared by all the circuits it lands in.
:func:`map_with_block_lengths` is the same lowering that also reports
how many output gates each input gate became, counted by the loop that
emitted them: the certificate the ``rptm`` verifier checks block by
block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple, Union

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
    return _lower(circuit, relative_phase, allow_extra_lines, prefer_clean)[0]


def map_with_block_lengths(
    circuit: Union[ReversibleCircuit, QuantumCircuit],
    relative_phase: bool = True,
    prefer_clean: bool = True,
) -> Tuple[QuantumCircuit, Tuple[int, ...]]:
    """:func:`map_to_clifford_t` plus each input gate's output block length.

    The second item is the lowering's certificate for block-wise
    verification, counted by the same loop that built the output: the
    output is the concatenation of one contiguous block per input gate,
    of these lengths.  A cascade gets one length per :class:`MctGate`,
    counting the X conjugation of its negative controls; a quantum
    circuit gets one length per gate.  The arguments are those of
    :func:`map_to_clifford_t` (extra lines allowed).
    """
    out, lengths = _lower(circuit, relative_phase, True, prefer_clean)
    if not isinstance(circuit, ReversibleCircuit):
        return out, tuple(lengths)
    # to_quantum_circuit emits each MctGate as its 2 * negatives + 1 gates
    spent = iter(lengths)
    return out, tuple(
        sum(next(spent) for _ in range(2 * gate.polarity.count(False) + 1))
        for gate in circuit.gates
    )


def _lower(
    circuit: Union[ReversibleCircuit, QuantumCircuit],
    relative_phase: bool,
    allow_extra_lines: bool,
    prefer_clean: bool,
) -> Tuple[QuantumCircuit, List[int]]:
    """The lowered circuit and the output gate count of each input gate."""
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
    lengths = []
    for gate in source.gates:
        start = len(out.gates)
        _lower_gate(gate, out, width, clean, relative_phase)
        lengths.append(len(out.gates) - start)
    return out, lengths


#: placed lowerings kept (~9 kB each); Eq. (5) workloads need a few hundred
_PLACED_CACHE_SIZE = 1024


@lru_cache(maxsize=256)
def _template(shape: Tuple[str, int, bool, bool]) -> Tuple[Gate, ...]:
    """The Clifford+T lowering of one MCT shape on local wires.

    ``shape`` is ``("mcx" | "mcz", k, clean, relative_phase)``; the
    wires are the controls ``0..k-1``, the target ``k``, then the
    ``k-2`` ancillae.  Built lazily, once per shape, by the builders.
    """
    kind, k, clean, relative_phase = shape
    if k == 0:
        return (Gate("z" if kind == "mcz" else "x", (0,)),)
    controls = list(range(k))
    ancillae = list(range(k + 1, 2 * k - 1))
    width = k + 1 + len(ancillae)
    if k == 1:
        sub = QuantumCircuit(2).cx(0, 1)
    elif k == 2:
        sub = ccx_clifford_t(0, 1, k, width)
    elif clean:
        sub = mcx_clean_ancilla(
            controls, k, ancillae, width, relative_phase=relative_phase
        )
    else:
        sub = mcx_dirty_ancilla(controls, k, ancillae, width)
    if kind == "mcz":
        return (Gate("h", (k,)),) + tuple(sub.gates) + (Gate("h", (k,)),)
    return tuple(sub.gates)


@lru_cache(maxsize=_PLACED_CACHE_SIZE)
def _placed(
    shape: Tuple[str, int, bool, bool], wires: Tuple[int, ...]
) -> Tuple[Gate, ...]:
    """:func:`_template` of ``shape`` moved onto the concrete ``wires``."""
    return tuple(gate.remap(wires) for gate in _template(shape))


def _lower_gate(
    gate: Gate,
    out: QuantumCircuit,
    width: int,
    clean: List[int],
    relative_phase: bool,
) -> None:
    name = gate.name
    if name in ("mcx", "mcz", "ccx", "ccz"):
        controls = gate.controls
        target = gate.targets[0]
        kind = "mcz" if name.endswith("z") else "mcx"
        k = len(controls)
        if k <= 2:
            shape = (kind, k, True, False)
            ancillae: Sequence[int] = ()
        else:
            need = k - 2
            if len(clean) >= need:
                ancillae = clean[:need]
                shape = (kind, k, True, relative_phase)
            else:
                busy = set(controls) | {target}
                dirty = [q for q in range(width) if q not in busy]
                if len(dirty) < need:
                    raise MappingError(
                        f"no ancillae available for {k}-control gate"
                    )
                ancillae = dirty[:need]
                shape = (kind, k, False, False)
        wires = controls + (target,) + tuple(ancillae)
        out._check_wire_map(dict(enumerate(wires)))
        # gates are immutable, so every placement shares one tuple
        out.gates.extend(_placed(shape, wires))
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
