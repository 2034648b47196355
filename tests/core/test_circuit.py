"""Unit tests for the QuantumCircuit container."""

import pickle

import numpy as np
import pytest

from _dense_reference import circuits_equivalent

from repro.core.circuit import FrozenCircuitError, QuantumCircuit
from repro.core.gates import Gate
from repro.core.unitary import circuit_unitary
from repro.synthesis.reversible import MctGate, ReversibleCircuit


class TestBuilding:
    def test_empty(self):
        circ = QuantumCircuit(3)
        assert len(circ) == 0
        assert circ.num_qubits == 3
        assert circ.depth() == 0

    def test_builder_methods_chain(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        assert [g.name for g in circ] == ["h", "cx", "t"]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).h(2)

    def test_clbit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2, 1).measure(0, 1)

    def test_mcx_degeneration(self):
        circ = QuantumCircuit(5)
        circ.mcx([], 0)
        circ.mcx([1], 0)
        circ.mcx([1, 2], 0)
        circ.mcx([1, 2, 3], 0)
        assert [g.name for g in circ] == ["x", "cx", "ccx", "mcx"]

    def test_mcz_degeneration(self):
        circ = QuantumCircuit(5)
        circ.mcz([], 0)
        circ.mcz([1], 0)
        circ.mcz([1, 2], 0)
        circ.mcz([1, 2, 3], 0)
        assert [g.name for g in circ] == ["z", "cz", "ccz", "mcz"]

    def test_measure_all_grows_clbits(self):
        circ = QuantumCircuit(3)
        circ.measure_all()
        assert circ.num_clbits == 3
        assert sum(1 for g in circ if g.is_measurement) == 3


class TestStructure:
    def test_compose_identity_mapping(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).cx(0, 1)
        a.compose(b)
        assert [g.name for g in a] == ["h", "cx"]

    def test_compose_with_mapping(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2).cx(0, 1)
        a.compose(b, qubits=[2, 0])
        gate = a.gates[0]
        assert gate.controls == (2,)
        assert gate.targets == (0,)

    def test_compose_width_check(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).compose(QuantumCircuit(2).h(1))

    def test_compose_identity_shares_gates(self):
        b = QuantumCircuit(2).h(0).cx(0, 1)
        a = QuantumCircuit(3).compose(b)
        assert a.gates == b.gates
        assert all(x is y for x, y in zip(a.gates, b.gates))

    def test_compose_identity_checks_assigned_gates(self):
        other = QuantumCircuit(2)
        other.gates = [Gate("h", (0,)), Gate("x", (3,))]
        target = QuantumCircuit(2).h(1)
        with pytest.raises(ValueError, match="qubit 3 outside"):
            target.compose(other)
        other.gates = [Gate("measure", (0,), cbits=(2,))]
        with pytest.raises(ValueError, match="classical bit 2"):
            QuantumCircuit(2, 2).compose(other)
        assert target.gates == [Gate("h", (1,))]

    def test_compose_rejects_repeated_wire(self):
        other = QuantumCircuit(2).h(0).x(1)
        target = QuantumCircuit(2)
        with pytest.raises(ValueError, match=r"wire map \{0: 0, 1: 0\}"):
            target.compose(other, qubits=[0, 0])
        assert target.gates == []

    def test_compose_rejects_out_of_range_wire(self):
        other = QuantumCircuit(2).h(0)
        with pytest.raises(ValueError, match=r"wire map \{0: 0, 1: 3\}"):
            QuantumCircuit(3).compose(other, qubits=[0, 3])
        with pytest.raises(ValueError, match="wire map"):
            QuantumCircuit(3).compose(other, qubits=[-1, 0])

    def test_compose_mapped_clbit_still_checked(self):
        other = QuantumCircuit(1, 2).measure(0, 1)
        with pytest.raises(ValueError, match="classical bit 1"):
            QuantumCircuit(2, 1).compose(other, qubits=[1])
        with pytest.raises(ValueError, match="classical bit 1"):
            QuantumCircuit(2, 1).compose(other)

    def test_remap_rejects_merged_wires(self):
        circ = QuantumCircuit(2).h(0).x(1)
        with pytest.raises(ValueError, match=r"wire map \{0: 1, 1: 1\}"):
            circ.remap({0: 1, 1: 1})

    def test_remap_rejects_out_of_range_wire(self):
        circ = QuantumCircuit(2).h(0)
        with pytest.raises(ValueError, match=r"wire map \{0: 2, 1: 0\}"):
            circ.remap({0: 2, 1: 0})
        assert circ.remap({0: 2, 1: 0}, num_qubits=3).gates[0].qubits == (2,)

    def test_remapped_gates_store_their_qubits(self):
        circ = QuantumCircuit(3, 1).ccx(0, 1, 2).measure(2, 0)
        moved = circ.remap({0: 2, 1: 0, 2: 1})
        assert [g.qubits for g in moved] == [(2, 0, 1), (1,)]
        assert moved.gates[0] == Gate("ccx", (1,), (2, 0))
        assert moved.gates[1].cbits == (0,)

    def test_dagger_reverses_and_inverts(self):
        circ = QuantumCircuit(2).h(0).t(0).cx(0, 1)
        dag = circ.dagger()
        assert [g.name for g in dag] == ["cx", "tdg", "h"]

    def test_dagger_is_inverse_unitary(self):
        circ = QuantumCircuit(3)
        circ.h(0).cx(0, 1).t(2).ccx(0, 1, 2).s(1)
        composed = circ.copy()
        composed.compose(circ.dagger())
        assert np.allclose(
            circuit_unitary(composed), np.eye(8), atol=1e-9
        )

    def test_power(self):
        circ = QuantumCircuit(1).t(0)
        assert circuits_equivalent(
            circ.power(2), QuantumCircuit(1).s(0)
        )
        assert circuits_equivalent(
            circ.power(-1), QuantumCircuit(1).tdg(0)
        )

    def test_remap(self):
        circ = QuantumCircuit(2).cx(0, 1)
        wide = circ.remap({0: 3, 1: 1}, num_qubits=4)
        assert wide.gates[0].controls == (3,)
        assert wide.gates[0].targets == (1,)

    def test_controlled_promotes_gates(self):
        circ = QuantumCircuit(2).x(0).cx(0, 1)
        controlled = circ.controlled()
        assert [g.name for g in controlled] == ["cx", "ccx"]
        assert controlled.num_qubits == 3
        # control wire is qubit 0
        assert all(0 in g.controls for g in controlled)

    def test_controlled_unitary_semantics(self):
        base = QuantumCircuit(1).x(0)
        controlled = base.controlled()
        reference = QuantumCircuit(2).cx(0, 1)
        assert circuits_equivalent(controlled, reference)


class TestMetrics:
    def test_depth_parallel_gates(self):
        circ = QuantumCircuit(2).h(0).h(1)
        assert circ.depth() == 1

    def test_depth_serial_gates(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).h(1)
        assert circ.depth() == 3

    def test_barrier_not_counted_in_depth(self):
        circ = QuantumCircuit(2).h(0).barrier().h(0)
        assert circ.depth() == 2

    def test_t_count(self):
        circ = QuantumCircuit(1).t(0).tdg(0).s(0)
        assert circ.t_count() == 2

    def test_t_depth_parallel(self):
        circ = QuantumCircuit(2).t(0).t(1)
        assert circ.t_depth() == 1

    def test_t_depth_serial(self):
        circ = QuantumCircuit(1).t(0).h(0).t(0)
        assert circ.t_depth() == 2

    def test_two_qubit_count(self):
        circ = QuantumCircuit(3).cx(0, 1).swap(1, 2).h(0).ccx(0, 1, 2)
        assert circ.two_qubit_count() == 2

    def test_count_ops(self):
        circ = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        assert circ.count_ops() == {"h": 2, "cx": 1}

    def test_is_clifford_t(self):
        assert QuantumCircuit(2).h(0).t(0).cx(0, 1).is_clifford_t()
        assert not QuantumCircuit(3).ccx(0, 1, 2).is_clifford_t()

    def test_has_measurements(self):
        circ = QuantumCircuit(1, 1)
        assert not circ.has_measurements()
        circ.measure(0, 0)
        assert circ.has_measurements()


class TestEquality:
    def test_equal_circuits(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        assert a == b

    def test_copy_is_independent(self):
        a = QuantumCircuit(2).h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1
        assert len(b) == 2


#: every QuantumCircuit mutator, as (label, call on a 4-qubit circuit)
_QUANTUM_MUTATORS = [
    ("append", lambda c: c.append(Gate("h", (0,)))),
    ("extend", lambda c: c.extend([Gate("x", (1,))])),
    ("extend-empty", lambda c: c.extend([])),
    ("i", lambda c: c.i(0)),
    ("h", lambda c: c.h(0)),
    ("x", lambda c: c.x(0)),
    ("y", lambda c: c.y(0)),
    ("z", lambda c: c.z(0)),
    ("s", lambda c: c.s(0)),
    ("sdg", lambda c: c.sdg(0)),
    ("t", lambda c: c.t(0)),
    ("tdg", lambda c: c.tdg(0)),
    ("sx", lambda c: c.sx(0)),
    ("sxdg", lambda c: c.sxdg(0)),
    ("rx", lambda c: c.rx(0.5, 0)),
    ("ry", lambda c: c.ry(0.5, 0)),
    ("rz", lambda c: c.rz(0.5, 0)),
    ("p", lambda c: c.p(0.5, 0)),
    ("cx", lambda c: c.cx(0, 1)),
    ("cy", lambda c: c.cy(0, 1)),
    ("cz", lambda c: c.cz(0, 1)),
    ("ch", lambda c: c.ch(0, 1)),
    ("crz", lambda c: c.crz(0.5, 0, 1)),
    ("cp", lambda c: c.cp(0.5, 0, 1)),
    ("swap", lambda c: c.swap(0, 1)),
    ("cswap", lambda c: c.cswap(0, 1, 2)),
    ("ccx", lambda c: c.ccx(0, 1, 2)),
    ("ccz", lambda c: c.ccz(0, 1, 2)),
    ("mcx", lambda c: c.mcx([0, 1, 2], 3)),
    ("mcz", lambda c: c.mcz([0, 1, 2], 3)),
    ("mcp", lambda c: c.mcp(0.5, [0, 1], 3)),
    ("measure", lambda c: c.measure(0, 0)),
    ("measure_all", lambda c: c.measure_all()),
    ("reset", lambda c: c.reset(0)),
    ("barrier", lambda c: c.barrier()),
    ("compose", lambda c: c.compose(QuantumCircuit(2).h(0))),
    ("compose-empty", lambda c: c.compose(QuantumCircuit(2))),
]


class TestFrozen:
    @pytest.mark.parametrize(
        "mutate",
        [m for _, m in _QUANTUM_MUTATORS],
        ids=[label for label, _ in _QUANTUM_MUTATORS],
    )
    def test_every_mutator_raises_and_changes_nothing(self, mutate):
        circ = QuantumCircuit(4, 1).h(0).cx(0, 1)
        gates = list(circ.gates)
        assert circ.freeze() is circ and circ.frozen
        with pytest.raises(FrozenCircuitError):
            mutate(circ)
        assert circ.gates == gates
        assert circ.num_clbits == 1
        editable = circ.copy()  # copy() is the way back to a builder
        assert not editable.frozen
        mutate(editable)
        assert circ.gates == gates and circ.num_clbits == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.append(MctGate(0, (1,))),
            lambda r: r.extend([MctGate(1)]),
            lambda r: r.extend([]),
            lambda r: r.add_gate(2, (0, 1)),
            lambda r: r.x(0),
            lambda r: r.cnot(0, 1),
            lambda r: r.toffoli(0, 1, 2),
            lambda r: r.compose(ReversibleCircuit(3).x(1)),
        ],
        ids=[
            "append", "extend", "extend-empty", "add_gate", "x", "cnot",
            "toffoli", "compose",
        ],
    )
    def test_every_reversible_mutator_raises(self, mutate):
        cascade = ReversibleCircuit(3).cnot(0, 1).freeze()
        gates = list(cascade.gates)
        with pytest.raises(FrozenCircuitError):
            mutate(cascade)
        assert cascade.gates == gates
        mutate(cascade.copy())  # the copy is a builder again

    def test_derived_circuits_are_builders(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).freeze()
        for derived in (
            circ.dagger(), circ.power(2), circ.remap({0: 1, 1: 0}),
            circ.controlled(),
        ):
            assert not derived.frozen
            derived.x(0)

    def test_frozen_circuit_still_compares_equal(self):
        circ = QuantumCircuit(2).h(0)
        assert circ.copy().freeze() == circ

    def test_sealed_gate_list_still_compares_equal(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        gates = list(circ.gates)
        circ.freeze()
        assert circ.gates == gates and gates == circ.gates
        assert list(circ.gates) == gates and circ.gates[1:] == gates[1:]

    def test_gate_list_mutators_raise_on_frozen_circuits(self):
        """Editing ``circuit.gates`` in place raises, for both kinds."""
        builders = (
            lambda: QuantumCircuit(2).h(0).cx(0, 1),
            lambda: ReversibleCircuit(2).cnot(0, 1).x(1),
        )
        for build in builders:
            circ = build().freeze()
            gates = list(circ.gates)
            first = gates[0]
            for mutate in _GATE_LIST_MUTATORS:
                with pytest.raises(FrozenCircuitError):
                    mutate(circ.gates, first)
            assert circ.gates == gates
            builder = circ.copy()  # a copy's list is an ordinary list
            builder.gates.append(first)
            assert len(builder) == len(gates) + 1 and circ.gates == gates


def _iadd(gates, gate):
    gates += [gate]


def _imul(gates, gate):
    gates *= 2


def _setitem(gates, gate):
    gates[0] = gate


def _setslice(gates, gate):
    gates[:1] = [gate, gate]


def _delitem(gates, gate):
    del gates[0]


_GATE_LIST_MUTATORS = (
    lambda gates, gate: gates.append(gate),
    lambda gates, gate: gates.extend([gate]),
    lambda gates, gate: gates.insert(0, gate),
    lambda gates, gate: gates.pop(),
    lambda gates, gate: gates.remove(gate),
    lambda gates, gate: gates.clear(),
    lambda gates, gate: gates.sort(key=id),
    lambda gates, gate: gates.reverse(),
    _setitem, _setslice, _delitem, _iadd, _imul,
)


class TestMemo:
    def test_frozen_circuit_counts_once(self):
        circ = QuantumCircuit(2).t(0).tdg(1).h(0)
        assert circ.t_count() == 2
        assert "_memo" not in vars(circ)  # builders never memoize
        circ.freeze()
        assert circ.t_count() == 2
        assert vars(circ)["_memo"] == {"t_count": 2}
        cascade = ReversibleCircuit(3).toffoli(0, 1, 2).freeze()
        assert cascade.quantum_cost() == 5
        assert vars(cascade)["_memo"] == {"quantum_cost": 5}

    def test_pickle_keeps_the_value_and_drops_the_memo(self):
        for circ in (
            QuantumCircuit(2).t(0).cx(0, 1).freeze(),
            ReversibleCircuit(2).cnot(0, 1).freeze(),
        ):
            circ.memoized("probe", lambda: "derived")
            clone = pickle.loads(pickle.dumps(circ))
            assert clone == circ and clone.frozen
            assert "_memo" not in vars(clone)
            assert "_memo" not in pickle.dumps(circ).decode("latin-1")
            with pytest.raises(FrozenCircuitError):
                clone.gates.append(circ.gates[0])
