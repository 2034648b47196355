"""MCT-network mapping into Clifford+T — the ``rptm`` command.

Lowers multiple-controlled Toffoli/Z gates to the Clifford+T set:

* 0/1 controls: direct gates;
* 2 controls: the 7-T CCX/CCZ decomposition;
* k >= 3 controls: the clean-ancilla Barenco ladder [40] — compute
  ladder + center CCX + uncompute ladder (2(k-2)+1 Toffolis).  With
  ``relative_phase=True`` the ladder Toffolis become RCCX (T-count 4),
  the provably-safe substitution of Maslov [42]; T-count drops from
  14(k-2)+7 to 8(k-2)+7.

:func:`map_to_clifford_t` maps a whole :class:`ReversibleCircuit` (or
quantum circuit with mcx/mcz gates), widening the register by the
``max_k - 2`` clean ancillae its widest gate needs.  Each lowering
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


def map_to_clifford_t(
    circuit: Union[ReversibleCircuit, QuantumCircuit],
    relative_phase: bool = True,
) -> QuantumCircuit:
    """Lower an MCT network (or mcx/mcz-bearing circuit) to Clifford+T.

    Every k-control gate (k >= 3) uses the cheap ladder on shared clean
    ancilla lines appended after the data lines — with
    ``relative_phase=True`` the ladder Toffolis are RCCX, cutting the
    T-count from 14(k-2)+7 to 8(k-2)+7.  The output satisfies
    :meth:`QuantumCircuit.is_clifford_t`.

    This is the shell's ``rptm`` command and the pass manager's
    :class:`~repro.pipeline.MapToCliffordTPass`.

    Args:
        circuit: the MCT cascade or multi-controlled-gate circuit.
        relative_phase: use RCCX ladder Toffolis (paper's rptm [42]).

    Returns:
        A pure Clifford+T circuit acting as ``|x>|0> ->
        e^{i phi(x)}|P(x)>|0>`` on the original lines.
    """
    return _lower(circuit, relative_phase)[0]


def map_with_block_lengths(
    circuit: Union[ReversibleCircuit, QuantumCircuit],
    relative_phase: bool = True,
) -> Tuple[QuantumCircuit, Tuple[int, ...]]:
    """:func:`map_to_clifford_t` plus each input gate's output block length.

    The second item is the lowering's certificate for block-wise
    verification, counted by the same loop that built the output: the
    output is the concatenation of one contiguous block per input gate,
    of these lengths.  A cascade gets one length per :class:`MctGate`,
    counting the X conjugation of its negative controls; a quantum
    circuit gets one length per gate.  The arguments are those of
    :func:`map_to_clifford_t`.
    """
    out, lengths = _lower(circuit, relative_phase)
    if not isinstance(circuit, ReversibleCircuit):
        return out, tuple(lengths)
    # to_quantum_circuit emits each MctGate as its 2 * negatives + 1 gates
    spent = iter(lengths)
    return out, tuple(
        sum(next(spent) for _ in range(2 * gate.polarity.count(False) + 1))
        for gate in circuit.gates
    )


def _lower(
    circuit: Union[ReversibleCircuit, QuantumCircuit], relative_phase: bool
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
    total = width + max(0, max_k - 2)
    out = QuantumCircuit(total, source.num_clbits, source.name + "_ct")
    clean = tuple(range(width, total))  # kept clean between gates
    lengths = []
    for gate in source.gates:
        start = len(out.gates)
        _lower_gate(gate, out, clean, relative_phase)
        lengths.append(len(out.gates) - start)
    return out, lengths


#: placed lowerings kept (~9 kB each); Eq. (5) workloads need a few hundred
_PLACED_CACHE_SIZE = 1024


@lru_cache(maxsize=256)
def _template(shape: Tuple[str, int, bool]) -> Tuple[Gate, ...]:
    """The Clifford+T lowering of one MCT shape on local wires.

    ``shape`` is ``("mcx" | "mcz", k, relative_phase)``; the wires are
    the controls ``0..k-1``, the target ``k``, then the ``k-2`` clean
    ancillae.  Built lazily, once per shape, by the builders.
    """
    kind, k, relative_phase = shape
    if k == 0:
        return (Gate("z" if kind == "mcz" else "x", (0,)),)
    if k == 1:
        sub = QuantumCircuit(2).cx(0, 1)
    elif k == 2:
        sub = ccx_clifford_t(0, 1, k, k + 1)
    else:
        sub = mcx_clean_ancilla(
            list(range(k)), k, list(range(k + 1, 2 * k - 1)), 2 * k - 1,
            relative_phase=relative_phase,
        )
    if kind == "mcz":
        return (Gate("h", (k,)),) + tuple(sub.gates) + (Gate("h", (k,)),)
    return tuple(sub.gates)


@lru_cache(maxsize=_PLACED_CACHE_SIZE)
def _placed(
    shape: Tuple[str, int, bool], wires: Tuple[int, ...]
) -> Tuple[Gate, ...]:
    """:func:`_template` of ``shape`` moved onto the concrete ``wires``."""
    return tuple(gate.remap(wires) for gate in _template(shape))


def _lower_gate(
    gate: Gate,
    out: QuantumCircuit,
    clean: Tuple[int, ...],
    relative_phase: bool,
) -> None:
    name = gate.name
    if name in ("mcx", "mcz", "ccx", "ccz"):
        controls = gate.controls
        k = len(controls)
        shape = ("mcz" if name.endswith("z") else "mcx", k,
                 relative_phase and k > 2)
        wires = controls + gate.targets[:1] + clean[:max(0, k - 2)]
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
