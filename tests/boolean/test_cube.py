"""Unit tests for cubes and ESOP truth tables."""

import pytest

from _helpers import cube_from_literals
from repro.boolean.cube import Cube, esop_to_truth_table
from repro.boolean.truth_table import TruthTable


class TestCube:
    def test_from_literals(self):
        cube = cube_from_literals([(0, True), (2, False)])
        assert cube.evaluate(0b001) == 1
        assert cube.evaluate(0b101) == 0
        assert cube.evaluate(0b000) == 0

    def test_polarity_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(mask=0b01, polarity=0b10)

    def test_tautology(self):
        cube = Cube()
        assert all(cube.evaluate(x) for x in range(8))
        assert cube.num_literals() == 0

    def test_minterm(self):
        cube = Cube.minterm(3, 5)
        assert cube.evaluate(5) == 1
        assert sum(cube.evaluate(x) for x in range(8)) == 1

    def test_literals_iteration(self):
        cube = cube_from_literals([(1, True), (3, False)])
        assert list(cube.literals()) == [(1, True), (3, False)]

    def test_to_truth_table(self):
        cube = cube_from_literals([(0, True), (1, True)])
        table = cube.to_truth_table(2)
        assert table == TruthTable.from_function(2, lambda a, b: a and b)


class TestDistance:
    def test_distance_zero(self):
        a = cube_from_literals([(0, True)])
        assert a.distance(cube_from_literals([(0, True)])) == 0

    def test_distance_polarity(self):
        a = cube_from_literals([(0, True), (1, True)])
        b = cube_from_literals([(0, True), (1, False)])
        assert a.distance(b) == 1

    def test_distance_missing_variable(self):
        a = cube_from_literals([(0, True), (1, True)])
        b = cube_from_literals([(0, True)])
        assert a.distance(b) == 1

    def test_distance_mixed(self):
        a = cube_from_literals([(0, True), (1, True)])
        b = cube_from_literals([(1, False), (2, True)])
        # differ: var0 (only a), var1 (polarity), var2 (only b)
        assert a.distance(b) == 3


class TestEsopSemantics:
    def test_xor_of_overlapping_cubes(self):
        cubes = [
            cube_from_literals([(0, True)]),
            cube_from_literals([(1, True)]),
        ]
        table = esop_to_truth_table(cubes, 2)
        assert table == TruthTable.from_function(2, lambda a, b: a ^ b)

    def test_str(self):
        assert str(Cube()) == "1"
        assert str(cube_from_literals([(0, True), (2, False)])) == "x0&~x2"
