"""Quantum circuit container.

:class:`QuantumCircuit` is the central IR of the toolflow: an ordered
list of :class:`~repro.core.gates.Gate` objects over ``num_qubits``
qubit wires and ``num_clbits`` classical wires.  It offers the gate
vocabulary as builder methods (``circ.h(0)``, ``circ.mcx([0, 1], 2)``),
structural operations (composition, inversion, power, remapping) and
the cost figures of :func:`repro.core.statistics.circuit_statistics`.
Emission is :func:`repro.emit.emit`; the unitary matrix is
:func:`repro.core.unitary.circuit_unitary`.

A circuit is a builder until ``freeze()``; the pass manager freezes
pass outputs so they can be shared, and ``copy()`` is editable again.
A frozen circuit computes each derived fact (content digest, T-count,
statistics, emitted text) once and keeps it in a per-instance memo.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Sequence,
)

from .gates import Gate, is_clifford_t_name
from .statistics import CircuitStatistics, circuit_statistics


class FrozenCircuitError(TypeError):
    """Raised when a frozen (shared, read-only) circuit is mutated."""


class SealedGates(list):
    """A frozen circuit's gate list: reads as a ``list``, refuses edits."""

    def _refuse(self, *args, **kwargs):
        raise FrozenCircuitError(
            "the gate list of a frozen circuit is read-only; call .copy() "
            "to edit"
        )

    append = extend = insert = pop = remove = clear = _refuse
    sort = reverse = __setitem__ = __delitem__ = _refuse
    __iadd__ = __imul__ = _refuse

    def __reduce__(self):
        return SealedGates, (list(self),)


class Freezable:
    """Builder-then-read-only lifecycle; mutators call ``_check_mutable``.

    Freezing seals ``gates`` and enables :meth:`memoized`, which computes
    a derived fact once per frozen value; builders always recompute.
    The memo is not part of the value: pickles leave it out.
    """

    #: set by :meth:`freeze`; the class default keeps builders mutable
    frozen = False

    def freeze(self):
        """Make the circuit read-only for good (sealing its gate list
        costs one pointer copy) and return it."""
        if not self.frozen:
            self.gates = SealedGates(self.gates)
            self.frozen = True
        return self

    def memoized(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Return ``compute()``, computed once while the value is frozen."""
        if not self.frozen:
            return compute()
        memo = self.__dict__.setdefault("_memo", {})
        try:
            return memo[key]
        except KeyError:
            # concurrent first calls agree on whichever value lands first
            return memo.setdefault(key, compute())

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def _check_mutable(self) -> None:
        if self.frozen:
            raise FrozenCircuitError(
                f"{type(self).__name__} {self.name!r} is frozen (shared, "
                "read-only); call .copy() to edit"
            )


class QuantumCircuit(Freezable):
    """An ordered sequence of gates over a fixed set of qubits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "circuit"):
        if num_qubits < 0 or num_clbits < 0:
            raise ValueError("qubit/clbit counts must be non-negative")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self.gates: List[Gate] = []

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index):
        return self.gates[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumCircuit)
            and self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self.gates == other.gates
        )

    def copy(self) -> "QuantumCircuit":
        """Return an editable (unfrozen) copy of this circuit."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        out.gates = list(self.gates)
        return out

    # ------------------------------------------------------------------
    # gate appending
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a gate, validating wire indices."""
        self._check_mutable()
        self._check_wires((gate,))
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        self._check_mutable()
        for gate in gates:
            self.append(gate)
        return self

    def _check_wires(self, gates: Iterable[Gate]) -> None:
        """Refuse gates whose qubits or classical bits leave this circuit."""
        width = self.num_qubits
        for gate in gates:
            for q in gate.qubits:
                if not 0 <= q < width:
                    raise ValueError(
                        f"gate {gate.name} touches qubit {q} outside "
                        f"range 0..{width - 1}"
                    )
            for c in gate.cbits:
                if not 0 <= c < self.num_clbits:
                    raise ValueError(f"classical bit {c} out of range")

    def _check_wire_map(self, mapping: Mapping[int, int]) -> None:
        """Refuse a wire map that leaves this circuit or merges wires.

        Checked on the map itself, because relabelling through a map
        that merges two wires still gives a valid gate wherever a gate
        touches only one of them.
        """
        wires = list(mapping.values())
        for wire in wires:
            if not 0 <= wire < self.num_qubits:
                raise ValueError(
                    f"wire map {dict(mapping)!r} sends a wire outside "
                    f"range 0..{self.num_qubits - 1}"
                )
        if len(set(wires)) != len(wires):
            raise ValueError(
                f"wire map {dict(mapping)!r} sends two wires to one"
            )

    def _add(self, name, targets, controls=(), params=(), cbits=()):
        self.append(
            Gate(
                name,
                tuple(targets),
                tuple(controls),
                tuple(float(p) for p in params),
                tuple(cbits),
            )
        )
        return self

    # single-qubit fixed gates ----------------------------------------
    def h(self, qubit: int) -> "QuantumCircuit":
        return self._add("h", (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self._add("x", (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self._add("y", (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self._add("z", (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self._add("s", (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self._add("sdg", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self._add("t", (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self._add("tdg", (qubit,))

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self._add("sx", (qubit,))

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        return self._add("sxdg", (qubit,))

    # rotations ---------------------------------------------------------
    def rx(self, angle: float, qubit: int) -> "QuantumCircuit":
        return self._add("rx", (qubit,), params=(angle,))

    def ry(self, angle: float, qubit: int) -> "QuantumCircuit":
        return self._add("ry", (qubit,), params=(angle,))

    def rz(self, angle: float, qubit: int) -> "QuantumCircuit":
        return self._add("rz", (qubit,), params=(angle,))

    def p(self, angle: float, qubit: int) -> "QuantumCircuit":
        return self._add("p", (qubit,), params=(angle,))

    # controlled gates ---------------------------------------------------
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self._add("cx", (target,), (control,))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self._add("cy", (target,), (control,))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self._add("cz", (target,), (control,))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self._add("ch", (target,), (control,))

    def crz(self, angle: float, control: int, target: int) -> "QuantumCircuit":
        return self._add("crz", (target,), (control,), (angle,))

    def cp(self, angle: float, control: int, target: int) -> "QuantumCircuit":
        return self._add("cp", (target,), (control,), (angle,))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self._add("swap", (a, b))

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        return self._add("cswap", (a, b), (control,))

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self._add("ccx", (target,), (c1, c2))

    def ccz(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self._add("ccz", (target,), (c1, c2))

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multiple-controlled X.  Degenerates to x/cx/ccx when short."""
        controls = tuple(controls)
        if len(controls) == 0:
            return self.x(target)
        if len(controls) == 1:
            return self.cx(controls[0], target)
        if len(controls) == 2:
            return self.ccx(controls[0], controls[1], target)
        return self._add("mcx", (target,), controls)

    def mcz(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multiple-controlled Z."""
        controls = tuple(controls)
        if len(controls) == 0:
            return self.z(target)
        if len(controls) == 1:
            return self.cz(controls[0], target)
        if len(controls) == 2:
            return self.ccz(controls[0], controls[1], target)
        return self._add("mcz", (target,), controls)

    def mcp(self, angle: float, controls: Sequence[int], target: int) -> "QuantumCircuit":
        controls = tuple(controls)
        if len(controls) == 0:
            return self.p(angle, target)
        if len(controls) == 1:
            return self.cp(angle, controls[0], target)
        return self._add("mcp", (target,), controls, (angle,))

    # non-unitary ---------------------------------------------------------
    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self._add("measure", (qubit,), cbits=(clbit,))

    def measure_all(self) -> "QuantumCircuit":
        """Measure qubit i into classical bit i, growing clbits if needed."""
        self._check_mutable()
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self._add("reset", (qubit,))

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        return self._add("barrier", tuple(qubits) or tuple(range(self.num_qubits)))

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append ``other`` onto this circuit (in place), wire for wire.

        Raises:
            ValueError: ``other`` is wider than ``self``.
        """
        self._check_mutable()
        if other.num_qubits > self.num_qubits:
            raise ValueError("composed circuit is wider than target")
        # gates are immutable: share them (still range-checked below,
        # as ``other.gates`` may have been assigned directly)
        self._check_wires(other.gates)
        self.gates.extend(other.gates)
        return self

    def dagger(self) -> "QuantumCircuit":
        """Return the adjoint circuit (reversed order, inverted gates)."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name + "_dg")
        for gate in reversed(self.gates):
            out.append(gate.dagger())
        return out

    def remap(self, mapping: Mapping[int, int]) -> "QuantumCircuit":
        """Return a copy acting on relabelled qubits.

        Raises:
            ValueError: ``mapping`` sends two wires to one, or a wire
                outside the circuit.
        """
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        out._check_wire_map(mapping)
        out.gates = [gate.remap(mapping) for gate in self.gates]
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _statistics(self) -> CircuitStatistics:
        """The :func:`~repro.core.statistics.circuit_statistics` bundle
        the figures below read (computed once when frozen)."""
        return self.memoized("statistics", lambda: circuit_statistics(self))

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names (a copy of the statistics')."""
        return dict(self._statistics().histogram)

    def depth(self) -> int:
        """Circuit depth counting every non-barrier gate as one level."""
        return self._statistics().depth

    def t_count(self) -> int:
        """Number of T/T' gates (computed once when frozen)."""
        return self.memoized(
            "t_count",
            lambda: sum(1 for g in self.gates if g.name in ("t", "tdg")),
        )

    def two_qubit_count(self) -> int:
        return self._statistics().two_qubit_count

    def is_clifford_t(self) -> bool:
        return all(
            is_clifford_t_name(g.name) for g in self.gates if g.is_unitary
        )

    def has_measurements(self) -> bool:
        return any(g.is_measurement for g in self.gates)

    def unitary_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_unitary and g.name != "barrier"]

    def __str__(self) -> str:
        lines = [f"QuantumCircuit({self.num_qubits} qubits, {len(self.gates)} gates)"]
        lines.extend("  " + str(g) for g in self.gates)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<QuantumCircuit {self.name!r}: {self.num_qubits} qubits, "
            f"{len(self.gates)} gates, depth {self.depth()}>"
        )
