"""Unit tests for reversible pebble games.

Two reference strategies live here as oracles for
:func:`~repro.synthesis.pebbling.checkpoint_moves`: Bennett's
pebble-everything sequence and an exact breadth-first search.
"""

from collections import deque

import pytest

from repro.synthesis.pebbling import (
    PebbleGameError,
    checkpoint_moves,
    pebble_tradeoff_curve,
    validate_moves,
)


def bennett_moves(num_steps):
    """Compute all, uncompute all but the last: n pebbles, 2n-1 moves."""
    moves = [(i, True) for i in range(num_steps)]
    moves.extend((i, False) for i in reversed(range(num_steps - 1)))
    return moves


def optimal_moves(num_steps, pebbles):
    """Exact minimum-move solution by BFS over game states.

    State = pebble bitmask.  Practical for chains up to ~16 steps.
    Returns None if the budget is infeasible.
    """
    if num_steps > 20:
        raise PebbleGameError("chain too long for exact search")
    start = 0
    goal = 1 << (num_steps - 1)
    parents = {start: (start, (-1, True))}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            break
        for step in range(num_steps):
            if step > 0 and not (state >> (step - 1)) & 1:
                continue
            nxt = state ^ (1 << step)
            placing = bool((nxt >> step) & 1)
            if placing and bin(nxt).count("1") > pebbles:
                continue
            if nxt not in parents:
                parents[nxt] = (state, (step, placing))
                queue.append(nxt)
    if goal not in parents:
        return None
    moves = []
    state = goal
    while state != start:
        prev, move = parents[state]
        moves.append(move)
        state = prev
    moves.reverse()
    return moves


class TestValidation:
    def test_bennett_is_legal(self):
        for n in (1, 2, 5, 10):
            moves = bennett_moves(n)
            assert validate_moves(n, moves) == n
            assert len(moves) == 2 * n - 1

    def test_illegal_move_detected(self):
        with pytest.raises(PebbleGameError):
            validate_moves(3, [(1, True)])  # step 0 not pebbled

    def test_redundant_move_detected(self):
        with pytest.raises(PebbleGameError):
            validate_moves(2, [(0, True), (0, True)])

    def test_unclean_final_state_detected(self):
        moves = [(0, True), (1, True)]  # step 0 left pebbled
        with pytest.raises(PebbleGameError):
            validate_moves(2, moves)

    def test_result_must_be_pebbled(self):
        with pytest.raises(PebbleGameError):
            validate_moves(2, [(0, True), (0, False)])


class TestCheckpointStrategy:
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 31])
    def test_legal_for_various_budgets(self, n):
        for budget in range(3, n + 1):
            try:
                moves = checkpoint_moves(n, budget)
            except PebbleGameError:
                continue
            validate_moves(n, moves)

    def test_small_budget_raises(self):
        with pytest.raises(PebbleGameError):
            checkpoint_moves(64, 2)

    def test_fewer_pebbles_than_bennett(self):
        n = 16
        moves = checkpoint_moves(n, 6)
        peak = validate_moves(n, moves)
        assert peak < n

    def test_more_moves_with_fewer_pebbles(self):
        n = 16
        generous = len(checkpoint_moves(n, n))
        tight_moves = checkpoint_moves(n, 5)
        validate_moves(n, tight_moves)
        assert len(tight_moves) > generous


class TestOptimalSearch:
    def test_matches_bennett_with_full_budget(self):
        n = 6
        moves = optimal_moves(n, n)
        assert len(moves) <= len(bennett_moves(n))
        validate_moves(n, moves)

    def test_budget_respected(self):
        n = 8
        for budget in (3, 4, 5):
            moves = optimal_moves(n, budget)
            if moves is None:
                continue
            peak = validate_moves(n, moves)
            assert peak <= budget

    def test_infeasible_budget_returns_none(self):
        # pebbling n steps needs at least ~log2(n) pebbles
        assert optimal_moves(16, 2) is None

    def test_optimal_never_beaten_by_checkpointing(self):
        n, budget = 10, 4
        best = optimal_moves(n, budget)
        heuristic = checkpoint_moves(n, budget)
        peak = validate_moves(n, heuristic)
        if peak <= budget:
            assert len(best) <= len(heuristic)

    def test_length_guard(self):
        with pytest.raises(PebbleGameError):
            optimal_moves(21, 5)


class TestTradeoffCurve:
    def test_monotone_tradeoff(self):
        """Fewer pebbles never means fewer moves (Pareto frontier)."""
        points = pebble_tradeoff_curve(24, list(range(3, 25)))
        assert points
        points.sort()
        for (p1, m1), (p2, m2) in zip(points, points[1:]):
            if p1 < p2:
                assert m1 >= m2
