"""LUT-based hierarchical reversible synthesis (LHRS, [65]).

Maps the function into a k-LUT network
(:func:`repro.boolean.network.lut_map`), then realizes each LUT as a
single-target gate on a fresh ancilla via ESOP-based synthesis.
Outputs are copied out and intermediates uncomputed.

Two ancilla strategies (the qubits-vs-gates trade-off of Sec. V's
pebbling discussion [66], [67]):

* ``strategy="bennett"`` — compute all LUTs, copy outputs, uncompute
  all (maximum ancillae, minimum gates);
* ``strategy="eager"`` — uncompute a LUT as soon as its last fanout is
  consumed, recycling its ancilla (fewer ancillae, more gates).

:func:`lut_synthesis` accepts an optional ``ancilla_budget`` and raises
:class:`AncillaBudgetError` if even eager cleanup cannot fit, modeling
the "take k as an input parameter" challenge highlighted in Sec. IX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..boolean.network import LogicNetwork, LutNetwork, lut_map
from .embedding import Function, as_tables
from .reversible import MctGate, ReversibleCircuit
from .single_target import SingleTargetGate


class AncillaBudgetError(RuntimeError):
    """Raised when a synthesis cannot meet the requested qubit budget."""


@dataclass
class LutSynthesisResult:
    """Circuit plus bookkeeping of the LHRS flow."""

    circuit: ReversibleCircuit
    num_inputs: int
    num_outputs: int
    num_ancillae: int
    num_luts: int
    strategy: str

    @property
    def total_lines(self) -> int:
        return self.circuit.num_lines


def lut_synthesis(
    function: Function,
    k: int = 4,
    strategy: str = "bennett",
    ancilla_budget: Optional[int] = None,
    effort: str = "medium",
) -> LutSynthesisResult:
    """Hierarchical LUT-based synthesis.

    Line layout: inputs ``0..n-1``, outputs ``n..n+m-1``, ancillae
    above.  Realizes ``|x>|0>|0> -> |x>|f(x)>|0>``.
    """
    tables = as_tables(function)
    network = LogicNetwork.from_truth_tables(tables)
    mapped = lut_map(network, k)
    return lut_synthesis_from_mapping(
        mapped,
        num_outputs=len(tables),
        strategy=strategy,
        ancilla_budget=ancilla_budget,
        effort=effort,
    )


def lut_synthesis_from_mapping(
    mapped: LutNetwork,
    num_outputs: int,
    strategy: str = "bennett",
    ancilla_budget: Optional[int] = None,
    effort: str = "medium",
) -> LutSynthesisResult:
    """Run hierarchical (LHRS) synthesis over an existing LUT mapping.

    Args:
        mapped: the k-LUT network to turn into a reversible circuit.
        num_outputs: how many of the network's roots are outputs.
        strategy: ancilla discipline — ``"bennett"`` (uncompute at the
            end) or ``"eager"`` (uncompute as soon as possible).
        ancilla_budget: optional cap on simultaneously live ancillae;
            raises :class:`AncillaBudgetError` when infeasible.
        effort: pebbling effort for the eager strategy.

    Returns:
        A :class:`LutSynthesisResult` with the circuit and the
        line/ancilla bookkeeping.
    """
    if strategy not in ("bennett", "eager"):
        raise ValueError("strategy must be 'bennett' or 'eager'")
    n = mapped.num_inputs
    m = num_outputs
    if strategy == "bennett":
        result = _bennett_flow(mapped, n, m, effort)
    else:
        result = _eager_flow(mapped, n, m, effort)
    if ancilla_budget is not None and result.num_ancillae > ancilla_budget:
        if strategy == "bennett":
            # retry with the thrifty strategy before giving up
            result = _eager_flow(mapped, n, m, effort)
            if result.num_ancillae <= ancilla_budget:
                return result
        raise AncillaBudgetError(
            f"needs {result.num_ancillae} ancillae, budget is "
            f"{ancilla_budget}"
        )
    return result


def _lut_gates(
    lut, line_of: Dict[int, int], target: int, effort: str
) -> List[MctGate]:
    """Single-target gate realizing one LUT onto a clean target."""
    control_lines = tuple(line_of[leaf] for leaf in lut.leaves)
    gate = SingleTargetGate(target, control_lines, lut.table)
    return gate.to_mct_gates(effort=effort)


def _copy_outputs(
    mapped: LutNetwork,
    line_of: Dict[int, int],
    n: int,
    circuit: ReversibleCircuit,
) -> None:
    for j, (node, complemented) in enumerate(mapped.outputs):
        out = n + j
        if node == 0:  # constant-0 network node
            if complemented:
                circuit.add_gate(out)
            continue
        source = line_of[node]
        circuit.add_gate(out, (source,))
        if complemented:
            circuit.add_gate(out)


def _bennett_flow(
    mapped: LutNetwork, n: int, m: int, effort: str
) -> LutSynthesisResult:
    line_of: Dict[int, int] = {1 + i: i for i in range(n)}
    next_line = n + m
    compute: List[MctGate] = []
    for lut in mapped.luts:
        line_of[lut.node] = next_line
        next_line += 1
        compute.extend(_lut_gates(lut, line_of, line_of[lut.node], effort))
    circuit = ReversibleCircuit(next_line, name="lhrs-bennett")
    circuit.extend(compute)
    _copy_outputs(mapped, line_of, n, circuit)
    circuit.extend(reversed(compute))
    return LutSynthesisResult(
        circuit=circuit,
        num_inputs=n,
        num_outputs=m,
        num_ancillae=len(mapped.luts),
        num_luts=len(mapped.luts),
        strategy="bennett",
    )


def _eager_flow(
    mapped: LutNetwork, n: int, m: int, effort: str
) -> LutSynthesisResult:
    """Recomputation-free eager pebbling.

    Output LUTs that feed no other LUT are computed directly onto their
    output line ("final" nodes, never uncomputed).  An internal node's
    ancilla is released as soon as every reader is final or already
    released; the pebble-game rule (fanins must stay pebbled while a
    node is pebbled) holds by induction, so the replayed uncompute
    gates always see live control lines.
    """
    lut_of: Dict[int, object] = {lut.node: lut for lut in mapped.luts}
    readers: Dict[int, Set[int]] = {lut.node: set() for lut in mapped.luts}
    for lut in mapped.luts:
        for leaf in lut.leaves:
            if leaf in readers:
                readers[leaf].add(lut.node)

    # choose "final" nodes: the first output occurrence of a LUT node
    # with no internal readers is computed in place on its output line
    final_line: Dict[int, int] = {}
    for j, (node, _complemented) in enumerate(mapped.outputs):
        if node in lut_of and not readers[node] and node not in final_line:
            final_line[node] = n + j

    line_of: Dict[int, int] = {1 + i: i for i in range(n)}
    gates_for: Dict[int, List[MctGate]] = {}
    unpebbled: Set[int] = set()
    free_lines: List[int] = []
    next_line = n + m
    peak_ancillae = 0
    live_ancillae = 0
    circuit_gates: List[MctGate] = []

    def allocate() -> int:
        nonlocal next_line, live_ancillae, peak_ancillae
        line = free_lines.pop() if free_lines else next_line
        if line == next_line:
            next_line += 1
        live_ancillae += 1
        peak_ancillae = max(peak_ancillae, live_ancillae)
        return line

    computed: Set[int] = set()

    def releasable(node: int) -> bool:
        return (
            node in gates_for
            and node not in final_line
            and all(
                r in unpebbled or (r in final_line and r in computed)
                for r in readers[node]
            )
        )

    def cascade() -> None:
        nonlocal live_ancillae
        progress = True
        while progress:
            progress = False
            # reverse topological order: parents release before children
            for lut in reversed(mapped.luts):
                node = lut.node
                if releasable(node):
                    circuit_gates.extend(reversed(gates_for[node]))
                    free_lines.append(line_of[node])
                    live_ancillae -= 1
                    unpebbled.add(node)
                    del gates_for[node]
                    del line_of[node]
                    progress = True

    for lut in mapped.luts:
        if lut.node in final_line:
            line = final_line[lut.node]
        else:
            line = allocate()
        line_of[lut.node] = line
        gates = _lut_gates(lut, line_of, line, effort)
        circuit_gates.extend(gates)
        computed.add(lut.node)
        if lut.node not in final_line:
            gates_for[lut.node] = gates
        cascade()

    circuit = ReversibleCircuit(max(next_line, n + m), name="lhrs-eager")
    circuit.extend(circuit_gates)
    # copy non-final outputs; fix complemented finals with a NOT
    for j, (node, complemented) in enumerate(mapped.outputs):
        out = n + j
        if final_line.get(node) == out:
            if complemented:
                circuit.add_gate(out)
            continue
        if node == 0:
            if complemented:
                circuit.add_gate(out)
            continue
        circuit.add_gate(out, (line_of[node],))
        if complemented:
            circuit.add_gate(out)
    # after output copies, remaining internal values can be uncomputed
    # in reverse topological order (parents before children, so every
    # node's fanins are still live when its gates are replayed)
    for lut in reversed(mapped.luts):
        node = lut.node
        if node in gates_for:
            circuit.extend(reversed(gates_for[node]))
            del gates_for[node]
    return LutSynthesisResult(
        circuit=circuit,
        num_inputs=n,
        num_outputs=m,
        num_ancillae=peak_ancillae,
        num_luts=len(mapped.luts),
        strategy="eager",
    )
