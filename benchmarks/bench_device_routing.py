"""EXT-ROUTE — device-topology mapping overhead (Sec. VII, extension).

Running on the IBM Quantum Experience chip requires mapping the
compiled circuit to the device coupling graph — a stage the paper
delegates to IBM's stack.  This bench regenerates it with our router.

The Fig. 4 circuit is trivially routable (its two CZ gates touch
adjacent pairs), which is asserted below.  The interesting case is the
Fig. 7/8 Maiorana–McFarland circuit: its CZ layer couples the x- and
y-registers across the device, so constrained topologies force SWAP
insertion — more two-qubit gates, and under the chip noise model a
measurably lower success probability.  That chain (topology -> SWAPs
-> fidelity) is part of why Fig. 6 sits near p ~ 0.63.

The routing stage executes through the pass manager: each topology
run dispatches one :class:`repro.pipeline.RoutePass` (the final stage
of the Sec. VII device shape the ``ibm_qe5`` target resolves to) over
the already-prepared circuit, and the pass records carry the SWAP
counts.
"""

from conftest import report

from repro.algorithms.hidden_shift import hidden_shift_circuit
from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.core.circuit import QuantumCircuit
from repro.mapping.barenco import map_to_clifford_t
from repro.mapping.routing import CouplingMap, verify_routing
from repro.optimization.simplify import cancel_adjacent_gates
from repro.pipeline import FlowState, Pipeline, RoutePass
from bench_fig5_simple_hidden_shift import run_program


def route_on(circuit, coupling, pipeline=None):
    """Route ``circuit`` onto ``coupling`` through the pass manager."""
    runner = pipeline if pipeline is not None else Pipeline(cache=None)
    state, record = runner.apply(RoutePass(coupling), FlowState(quantum=circuit))
    return state.routing, record


def mm_unitary_circuit():
    """The Fig. 7/8 circuit, Clifford+T-mapped, measurements stripped."""
    instance = HiddenShiftInstance(
        MaioranaMcFarland(BitPermutation([0, 2, 3, 5, 7, 1, 4, 6]), TruthTable(3)),
        5,
    )
    built = hidden_shift_circuit(instance, method="mm")
    mapped = cancel_adjacent_gates(map_to_clifford_t(built.circuit))
    unitary_part = QuantumCircuit(mapped.num_qubits)
    for gate in mapped.gates:
        if not gate.is_measurement:
            unitary_part.append(gate)
    return unitary_part


def test_fig4_circuit_needs_no_routing(benchmark):
    def _run():
        """Fig. 4's CZ pairs are adjacent on every preset topology."""
        _shift, circuit = run_program()
        unitary_part = QuantumCircuit(circuit.num_qubits)
        for gate in circuit.gates:
            if not gate.is_measurement:
                unitary_part.append(gate)
        rows = []
        for name, cmap in (
            ("ibmqx2 (bowtie)", CouplingMap.ibm_qx2()),
            ("ibmqx4", CouplingMap.ibm_qx4()),
            ("line-5", CouplingMap.line(5)),
        ):
            result, record = route_on(unitary_part, cmap)
            rows.append((name, f"SWAPs = {result.swap_count}"))
            assert record.details["swaps"] == 0
            assert result.swap_count == 0
            assert verify_routing(unitary_part, result, cmap.edges)
        report("EXT-ROUTE: Fig. 4 circuit routes SWAP-free", rows)


    benchmark.pedantic(_run, rounds=1, iterations=1)
def test_mm_routing_overhead(benchmark):
    circuit = mm_unitary_circuit()
    benchmark.pedantic(
        route_on, args=(circuit, CouplingMap.line(6)),
        rounds=3, iterations=1,
    )

    rows = [("topology", "SWAPs | 2q gates | semantics kept")]
    baseline = None
    for name, cmap in (
        ("full (ideal)", CouplingMap.full(6)),
        ("grid 2x3", CouplingMap.grid(2, 3)),
        ("ring-6", CouplingMap.ring(6)),
        ("line-6", CouplingMap.line(6)),
    ):
        result, record = route_on(circuit, cmap)
        ok = verify_routing(circuit, result, cmap.edges)
        rows.append(
            (
                name,
                f"{result.swap_count:3d}   | "
                f"{result.circuit.two_qubit_count():3d}      | {ok}",
            )
        )
        assert ok
        assert record.details["swaps"] == result.swap_count
        if baseline is None:
            baseline = result.swap_count
    report("EXT-ROUTE: Fig. 7/8 MM circuit on device topologies", rows)
    line_result, _ = route_on(circuit, CouplingMap.line(6))
    assert baseline == 0
    assert line_result.swap_count > 0
