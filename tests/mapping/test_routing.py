"""Unit tests for device-topology routing."""

import random

import pytest

from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import (
    CouplingMap,
    RoutingError,
    route_circuit,
    verify_routing,
)


def random_two_qubit_circuit(num_qubits, num_gates, seed):
    rng = random.Random(seed)
    circ = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.55 and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            circ.cx(a, b)
        else:
            getattr(circ, rng.choice(["h", "t", "s", "x"]))(
                rng.randrange(num_qubits)
            )
    return circ


class TestCouplingMap:
    def test_ibm_qx2_shape(self):
        cmap = CouplingMap.ibm_qx2()
        assert cmap.num_qubits == 5
        assert cmap.connected(0, 1)
        assert cmap.connected(2, 4)
        assert not cmap.connected(0, 4)

    def test_line_distances(self):
        cmap = CouplingMap.line(6)
        assert cmap.distance(0, 5) == 5
        assert cmap.distance(2, 2) == 0

    def test_ring_shortcut(self):
        cmap = CouplingMap.ring(6)
        assert cmap.distance(0, 5) == 1

    def test_grid(self):
        cmap = CouplingMap.grid(3, 3)
        assert cmap.num_qubits == 9
        assert cmap.distance(0, 8) == 4

    def test_full_connectivity(self):
        cmap = CouplingMap.full(4)
        assert all(
            cmap.connected(a, b)
            for a in range(4)
            for b in range(4)
            if a != b
        )

    def test_shortest_path_endpoints(self):
        cmap = CouplingMap.line(5)
        path = cmap.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == 5

    def test_disconnected_detected(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError):
            cmap.distance(0, 3)

    def test_bad_edge_rejected(self):
        with pytest.raises(RoutingError):
            CouplingMap(2, [(0, 0)])


class TestRouting:
    def test_adjacent_gates_unchanged(self):
        circ = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        result = route_circuit(circ, CouplingMap.line(3))
        assert result.swap_count == 0
        assert [g.name for g in result.circuit] == ["cx", "cx"]

    def test_distant_gate_inserts_swaps(self):
        circ = QuantumCircuit(3).cx(0, 2)
        result = route_circuit(circ, CouplingMap.line(3))
        assert result.swap_count >= 1
        for gate in result.circuit.gates:
            if gate.is_unitary and gate.num_qubits == 2:
                assert CouplingMap.line(3).connected(*gate.qubits)

    def test_full_connectivity_never_swaps(self):
        circ = random_two_qubit_circuit(5, 30, seed=2)
        result = route_circuit(circ, CouplingMap.full(5))
        assert result.swap_count == 0

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "factory",
        [CouplingMap.ibm_qx2, CouplingMap.ibm_qx4, lambda: CouplingMap.line(5)],
    )
    def test_routing_preserves_semantics(self, seed, factory):
        circ = random_two_qubit_circuit(4, 20, seed=seed)
        result = route_circuit(circ, factory())
        cmap = factory()
        for gate in result.circuit.gates:
            if gate.is_unitary and gate.num_qubits == 2:
                assert cmap.connected(*gate.qubits)
        assert verify_routing(circ, result, cmap.edges)

    @pytest.mark.parametrize(
        "factory, pair",
        [
            (lambda: CouplingMap.line(4), (3, 2)),
            (CouplingMap.ibm_qx2, (2, 4)),
            (CouplingMap.ibm_qx4, (1, 0)),
        ],
        ids=["line", "qx2", "qx4"],
    )
    def test_starts_from_the_identity_layout(self, factory, pair):
        # logical q sits on physical q, so an edge of the device needs
        # no SWAP and keeps its wires
        cmap = factory()
        circ = QuantumCircuit(cmap.num_qubits).cx(*pair)
        result = route_circuit(circ, cmap)
        assert result.initial_layout == tuple(range(cmap.num_qubits))
        assert result.final_layout == result.initial_layout
        assert result.swap_count == 0
        assert result.circuit.gates[0].qubits == pair
        assert verify_routing(circ, result, cmap.edges)

    def test_too_wide_rejected(self):
        with pytest.raises(RoutingError):
            route_circuit(QuantumCircuit(6), CouplingMap.line(3))

    def test_three_qubit_gate_rejected(self):
        circ = QuantumCircuit(3).ccx(0, 1, 2)
        with pytest.raises(RoutingError):
            route_circuit(circ, CouplingMap.line(3))

    def test_measurements_routed_to_physical(self):
        circ = QuantumCircuit(3, 3).cx(0, 2).measure(0, 0)
        result = route_circuit(circ, CouplingMap.line(3))
        measure = [g for g in result.circuit.gates if g.is_measurement][0]
        # the measured physical wire is wherever logical 0 ended up
        assert measure.targets[0] == result.final_layout[0]

    def test_fig4_circuit_on_ibm_qx2(self):
        """The paper's chip run: the compiled Fig. 4/5 circuit must be
        routable onto the 5-qubit bowtie without semantic change."""
        from repro.algorithms.hidden_shift import phase_oracle_circuit
        from repro.boolean.truth_table import TruthTable

        table = TruthTable.from_function(
            4, lambda a, b, c, d: (a and b) ^ (c and d)
        )
        circ = QuantumCircuit(4)
        for q in range(4):
            circ.h(q)
        circ.x(0)
        circ.compose(phase_oracle_circuit(table, 4))
        circ.x(0)
        for q in range(4):
            circ.h(q)
        cmap = CouplingMap.ibm_qx2()
        result = route_circuit(circ, cmap)
        assert verify_routing(circ, result, cmap.edges)
