"""Unit tests for XAG networks and k-LUT mapping."""

import random

import pytest

from repro.boolean.esop import minimize_esop
from repro.boolean.network import LogicNetwork, lut_map
from repro.boolean.truth_table import TruthTable


class TestNetworkConstruction:
    def test_constant_propagation(self):
        net = LogicNetwork(2)
        a = net.input_signal(0)
        assert net.create_and(a, net.constant(False)) == net.constant(False)
        assert net.create_and(a, net.constant(True)) == a
        assert net.create_xor(a, net.constant(False)) == a

    def test_idempotence_and_complement_rules(self):
        net = LogicNetwork(1)
        a = net.input_signal(0)
        assert net.create_and(a, a) == a
        assert net.create_and(a, net.create_not(a)) == net.constant(False)
        assert net.create_xor(a, a) == net.constant(False)
        assert net.create_xor(a, net.create_not(a)) == net.constant(True)

    def test_structural_hashing(self):
        net = LogicNetwork(2)
        a, b = net.input_signal(0), net.input_signal(1)
        g1 = net.create_and(a, b)
        g2 = net.create_and(b, a)  # commutativity normalized
        assert g1 == g2
        assert net.num_gates() == 1


class TestSimulation:
    @pytest.mark.parametrize("seed", range(10))
    def test_from_esop_round_trip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        table = TruthTable(n, rng.getrandbits(1 << n))
        net = LogicNetwork.from_esop(minimize_esop(table), n)
        assert net.simulate()[0] == table

    def test_multi_output_sharing(self):
        t1 = TruthTable.from_function(3, lambda a, b, c: a and b)
        t2 = TruthTable.from_function(3, lambda a, b, c: (a and b) ^ c)
        net = LogicNetwork.from_truth_tables([t1, t2])
        out = net.simulate()
        assert out[0] == t1
        assert out[1] == t2

    def test_depth(self):
        net = LogicNetwork(4)
        sigs = [net.input_signal(i) for i in range(4)]
        layer1 = net.create_and(sigs[0], sigs[1])
        layer2 = net.create_and(layer1, sigs[2])
        net.add_output(layer2)
        assert net.depth() == 2


class TestLutMapping:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_mapping_preserves_function(self, k, seed):
        rng = random.Random(seed * 17 + k)
        n = rng.randint(2, 6)
        table = TruthTable(n, rng.getrandbits(1 << n))
        net = LogicNetwork.from_truth_table(table)
        mapped = lut_map(net, k)
        assert mapped.simulate()[0] == table

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_k_feasibility(self, k):
        table = TruthTable.inner_product(3)
        net = LogicNetwork.from_truth_table(table)
        mapped = lut_map(net, k)
        for lut in mapped.luts:
            assert len(lut.leaves) <= k

    def test_lut_count_shrinks_with_larger_k(self):
        table = TruthTable.inner_product(3)
        net = LogicNetwork.from_truth_table(table)
        small = lut_map(net, 2).num_luts()
        large = lut_map(net, 6).num_luts()
        assert large <= small

    def test_multi_output_mapping(self):
        tables = [
            TruthTable.from_function(4, lambda a, b, c, d: (a and b) ^ (c and d)),
            TruthTable.from_function(4, lambda a, b, c, d: a ^ d),
        ]
        net = LogicNetwork.from_truth_tables(tables)
        mapped = lut_map(net, 3)
        out = mapped.simulate()
        assert out[0] == tables[0]
        assert out[1] == tables[1]

    def test_k_lower_bound(self):
        with pytest.raises(ValueError):
            lut_map(LogicNetwork(2), 1)

    def test_topological_order(self):
        table = TruthTable.inner_product(3)
        mapped = lut_map(LogicNetwork.from_truth_table(table), 3)
        seen = set(range(1, mapped.num_inputs + 1)) | {0}
        for lut in mapped.luts:
            assert set(lut.leaves) <= seen
            seen.add(lut.node)
