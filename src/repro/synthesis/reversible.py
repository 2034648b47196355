"""Reversible circuits: multiple-controlled Toffoli (MCT) networks.

The intermediate representation between Boolean synthesis and quantum
mapping (Sec. V): reversible gates are "Boolean abstractions of
classical reversible operations".  An :class:`MctGate` is an X on the
target line conditioned on a set of positive/negative control lines; a
:class:`ReversibleCircuit` is a cascade of such gates.

Conversion to quantum circuits wraps negative controls in X
conjugation and leaves multi-controlled gates to the Clifford+T mapping
pass (:mod:`repro.mapping`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import Freezable, QuantumCircuit


@dataclass(frozen=True)
class MctGate:
    """A multiple-controlled Toffoli.

    Attributes:
        target: line whose value is flipped.
        controls: control line indices.
        polarity: bit i set = control ``controls[i]`` is positive
            (fires on 1); clear = negative (fires on 0).  Stored as a
            tuple of booleans aligned with ``controls``.
    """

    target: int
    controls: Tuple[int, ...] = ()
    polarity: Tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if len(self.polarity) not in (0, len(self.controls)):
            raise ValueError("polarity length must match controls")
        if not self.polarity and self.controls:
            object.__setattr__(
                self, "polarity", tuple(True for _ in self.controls)
            )
        if self.target in self.controls:
            raise ValueError("target cannot also be a control")
        if len(set(self.controls)) != len(self.controls):
            raise ValueError("duplicate control line")
        self._set_masks()

    def _set_masks(self) -> None:
        # ``(control_mask, polarity_mask)``, computed once per gate: a
        # plain attribute, not a field, so eq, hash and repr ignore it
        control_mask = polarity_mask = 0
        for line, positive in zip(self.controls, self.polarity):
            control_mask |= 1 << line
            if positive:
                polarity_mask |= 1 << line
        object.__setattr__(self, "_masks", (control_mask, polarity_mask))

    def __getstate__(self) -> Dict[str, object]:
        # the fields alone: the masks are derived, so pickles leave them out
        state = dict(self.__dict__)
        del state["_masks"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._set_masks()

    @classmethod
    def from_masks(cls, target: int, control_mask: int, polarity_mask: int) -> "MctGate":
        """Build from bitmasks (polarity bit set = positive control)."""
        controls = []
        polarity = []
        bit = 0
        while control_mask >> bit:
            if (control_mask >> bit) & 1:
                controls.append(bit)
                polarity.append(bool((polarity_mask >> bit) & 1))
            bit += 1
        return cls(target, tuple(controls), tuple(polarity))

    @property
    def num_controls(self) -> int:
        return len(self.controls)

    def control_mask(self) -> int:
        return self._masks[0]

    def polarity_mask(self) -> int:
        return self._masks[1]

    def apply(self, value: int) -> int:
        control_mask, polarity_mask = self._masks
        if (value & control_mask) == polarity_mask:
            return value ^ (1 << self.target)
        return value

    def lines(self) -> Tuple[int, ...]:
        return self.controls + (self.target,)

    def remap(self, mapping: Dict[int, int]) -> "MctGate":
        return MctGate(
            mapping[self.target],
            tuple(mapping[c] for c in self.controls),
            self.polarity,
        )

    def __str__(self) -> str:
        if not self.controls:
            return f"X({self.target})"
        ctl = ", ".join(
            f"{'+' if pos else '-'}{line}"
            for line, pos in zip(self.controls, self.polarity)
        )
        return f"MCT([{ctl}] -> {self.target})"


class ReversibleCircuit(Freezable):
    """Cascade of MCT gates over ``num_lines`` lines (a builder until
    ``freeze()``, like :class:`~repro.core.circuit.QuantumCircuit`)."""

    def __init__(self, num_lines: int, name: str = "reversible"):
        if num_lines < 0:
            raise ValueError("num_lines must be non-negative")
        self.num_lines = num_lines
        self.name = name
        self.gates: List[MctGate] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[MctGate]:
        return iter(self.gates)

    def __getitem__(self, index):
        return self.gates[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReversibleCircuit)
            and self.num_lines == other.num_lines
            and self.gates == other.gates
        )

    def copy(self) -> "ReversibleCircuit":
        """Return an editable (unfrozen) copy of this cascade."""
        out = ReversibleCircuit(self.num_lines, self.name)
        out.gates = list(self.gates)
        return out

    def append(self, gate: MctGate) -> "ReversibleCircuit":
        self._check_mutable()
        for line in gate.lines():
            if not 0 <= line < self.num_lines:
                raise ValueError(f"line {line} out of range")
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[MctGate]) -> "ReversibleCircuit":
        self._check_mutable()
        for gate in gates:
            self.append(gate)
        return self

    def add_gate(
        self,
        target: int,
        controls: Sequence[int] = (),
        polarity: Sequence[bool] = (),
    ) -> "ReversibleCircuit":
        return self.append(MctGate(target, tuple(controls), tuple(polarity)))

    def x(self, target: int) -> "ReversibleCircuit":
        return self.add_gate(target)

    def cnot(self, control: int, target: int) -> "ReversibleCircuit":
        return self.add_gate(target, (control,))

    def toffoli(self, c1: int, c2: int, target: int) -> "ReversibleCircuit":
        return self.add_gate(target, (c1, c2))

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def apply(self, value: int) -> int:
        for gate in self.gates:
            value = gate.apply(value)
        return value

    def columns(self, inputs: Optional[int] = None) -> List[int]:
        """Evaluate the cascade on every input at once.

        Each line holds one int whose bit ``x`` is the line's value on
        input ``x``, so a gate costs one AND per control and one XOR:
        ``col[target] ^= AND of (col[c] or ~col[c])``.

        Args:
            inputs: how many low lines are free inputs (default: all);
                they start as the projections
                :meth:`~repro.boolean.truth_table.TruthTable.projection`
                (so at most 24), every other line starts at 0.

        Returns:
            One ``2^inputs``-bit int per line.
        """
        if inputs is None:
            inputs = self.num_lines
        columns = [
            TruthTable.projection(inputs, i).bits for i in range(inputs)
        ] + [0] * (self.num_lines - inputs)
        every = (1 << (1 << inputs)) - 1
        for gate in self.gates:
            fire = every
            for line, positive in zip(gate.controls, gate.polarity):
                fire &= columns[line] if positive else ~columns[line]
            columns[gate.target] ^= fire
        return columns

    def permutation(self) -> BitPermutation:
        """The bijection the circuit realizes (input -> output)."""
        return BitPermutation(
            [self.apply(x) for x in range(1 << self.num_lines)]
        )

    def dagger(self) -> "ReversibleCircuit":
        """Inverse circuit: MCT gates are self-inverse, order reverses."""
        out = ReversibleCircuit(self.num_lines, self.name + "_dg")
        out.gates = list(reversed(self.gates))
        return out

    def compose(self, other: "ReversibleCircuit") -> "ReversibleCircuit":
        self._check_mutable()
        if other.num_lines > self.num_lines:
            raise ValueError("composed circuit is wider")
        self.gates.extend(other.gates)
        return self

    def remap(self, mapping: Dict[int, int]) -> "ReversibleCircuit":
        out = ReversibleCircuit(self.num_lines, self.name)
        for gate in self.gates:
            out.append(gate.remap(mapping))
        return out

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def quantum_cost(self) -> int:
        """Classical 'quantum cost' heuristic (Maslov-style table):
        NOT/CNOT cost 1, Toffoli 5, k-control MCT ~ 2^(k+1) - 3 for
        positive controls (standard literature figures); computed once
        when frozen."""
        return self.memoized("quantum_cost", self._quantum_cost)

    def _quantum_cost(self) -> int:
        cost = 0
        for gate in self.gates:
            k = gate.num_controls
            if k <= 1:
                cost += 1
            elif k == 2:
                cost += 5
            else:
                cost += (1 << (k + 1)) - 3
        return cost

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_quantum_circuit(self) -> QuantumCircuit:
        """Lower to quantum gates (negative controls via X conjugation).

        Multi-controlled gates are emitted as ``mcx``; run the
        Clifford+T mapping pass to remove them.
        """
        circuit = QuantumCircuit(self.num_lines, name=self.name)
        for gate in self.gates:
            negatives = [
                line
                for line, positive in zip(gate.controls, gate.polarity)
                if not positive
            ]
            for line in negatives:
                circuit.x(line)
            circuit.mcx(list(gate.controls), gate.target)
            for line in negatives:
                circuit.x(line)
        return circuit

    def __str__(self) -> str:
        lines = [
            f"ReversibleCircuit({self.num_lines} lines, {len(self.gates)} gates)"
        ]
        lines.extend("  " + str(g) for g in self.gates)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ReversibleCircuit {self.name!r}: {self.num_lines} lines, "
            f"{len(self.gates)} gates>"
        )
