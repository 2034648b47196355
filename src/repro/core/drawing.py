"""ASCII circuit rendering.

The paper typesets its circuits with <q|pic>; RevKit "export[s]
quantum circuits for rendering" (Sec. II).  This module provides the
equivalent here: a plain-text drawer for quantum circuits, used by the
examples and handy in a REPL.

Layout: one row per qubit (top row = qubit 0, matching the paper's
figures where x1 is the top wire); gates pack greedily into columns
whose wire spans do not overlap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .circuit import QuantumCircuit

_SYMBOLS = {
    "id": "I",
    "h": "H",
    "x": "X",
    "y": "Y",
    "z": "Z",
    "s": "S",
    "sdg": "S+",
    "t": "T",
    "tdg": "T+",
    "sx": "V",
    "sxdg": "V+",
    "measure": "M",
    "reset": "|0>",
}


class _Column:
    """One drawing column: wire -> symbol plus occupied spans."""

    def __init__(self) -> None:
        self.cells: Dict[int, str] = {}
        self.spans: List[Tuple[int, int]] = []

    def blocked(self, low: int, high: int) -> bool:
        return any(
            not (high < s_low or low > s_high)
            for s_low, s_high in self.spans
        )

    def add(self, cells: Dict[int, str]) -> None:
        wires = sorted(cells)
        self.spans.append((wires[0], wires[-1]))
        self.cells.update(cells)

    def inside_span(self, wire: int) -> bool:
        return any(low <= wire <= high for low, high in self.spans)

    def width(self) -> int:
        return max((len(v) for v in self.cells.values()), default=1)


def _pack(cell_sets: List[Dict[int, str]]) -> List[_Column]:
    columns: List[_Column] = []
    for cells in cell_sets:
        wires = sorted(cells)
        low, high = wires[0], wires[-1]
        target = None
        # slide left while the span stays free
        for column in reversed(columns):
            if column.blocked(low, high):
                break
            target = column
        if target is None:
            target = _Column()
            columns.append(target)
        target.add(cells)
    return columns


def _render(columns: List[_Column], num_wires: int) -> str:
    label_width = len(f"q{num_wires - 1}: ")
    lines = []
    for wire in range(num_wires):
        parts = [f"q{wire}: ".ljust(label_width)]
        for column in columns:
            symbol = column.cells.get(wire)
            if symbol is None:
                symbol = "|" if column.inside_span(wire) else "-"
            fill = "-" if symbol != "|" or wire not in column.cells else "-"
            pad = column.width() - len(symbol)
            left = pad // 2
            body = "-" * left + symbol + "-" * (pad - left)
            if symbol == "|":
                body = body.replace("-", " ")
            parts.append(body + "--")
        lines.append("".join(parts).rstrip("- ") + "-")
    return "\n".join(lines)


def _quantum_cells(gate) -> Dict[int, str]:
    cells: Dict[int, str] = {}
    name = gate.name
    if name == "barrier":
        return {q: "|" for q in gate.targets}
    if name == "swap":
        return {gate.targets[0]: "x", gate.targets[1]: "x"}
    if name == "cswap":
        return {
            gate.controls[0]: "*",
            gate.targets[0]: "x",
            gate.targets[1]: "x",
        }
    for control in gate.controls:
        cells[control] = "*"
    base = gate.base_name
    if base == "x" and gate.controls:
        symbol = "(+)"
    elif base in ("rx", "ry", "rz", "p"):
        symbol = f"{base.capitalize()}({gate.params[0]:.3g})"
    else:
        symbol = _SYMBOLS.get(base, base.upper())
    for target in gate.targets:
        cells[target] = symbol
    return cells


def draw_circuit(circuit: "QuantumCircuit") -> str:
    """Render a quantum circuit as ASCII art."""
    columns = _pack([_quantum_cells(g) for g in circuit.gates])
    return _render(columns, circuit.num_qubits)
