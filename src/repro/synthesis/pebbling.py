"""Reversible pebble games — trading qubits for gates (Sec. V, [66]).

Hierarchical synthesis allocates one ancilla per intermediate value; a
*reversible pebble game* on the dependency chain lets a bounded number
of pebbles (ancillae) cover an arbitrarily long computation at the cost
of recomputation (extra gates).  This module implements the game on a
chain of ``n`` steps:

* move ``(+i)`` pebbles step ``i`` (legal iff step ``i-1`` is pebbled
  or ``i == 0``) — circuit-wise: replay step i's compute gates;
* move ``(-i)`` unpebbles step ``i`` under the same condition —
  circuit-wise: replay the same gates (self-inverse).

The strategy is :func:`checkpoint_moves` — Bennett's recursive
checkpointing with a pebble budget ``p``; fewer pebbles, super-linear
move count.
"""

from __future__ import annotations

from typing import List, Tuple

Move = Tuple[int, bool]  # (step index, pebble? else unpebble)


class PebbleGameError(ValueError):
    """Raised for illegal move sequences or infeasible budgets."""


def validate_moves(num_steps: int, moves: List[Move]) -> int:
    """Replay a move sequence, checking legality.

    Returns the peak pebble count.  The final step must end pebbled
    (it carries the result) and all others must end unpebbled.
    """
    pebbled = [False] * num_steps
    peak = 0
    for step, place in moves:
        if not 0 <= step < num_steps:
            raise PebbleGameError(f"step {step} out of range")
        if step > 0 and not pebbled[step - 1]:
            raise PebbleGameError(
                f"move on step {step} requires step {step - 1} pebbled"
            )
        if pebbled[step] == place:
            raise PebbleGameError(
                f"redundant move on step {step} (already {place})"
            )
        pebbled[step] = place
        peak = max(peak, sum(pebbled))
    if not pebbled[num_steps - 1]:
        raise PebbleGameError("result step must end pebbled")
    if any(pebbled[:-1]):
        raise PebbleGameError("intermediate steps must end unpebbled")
    return peak


def checkpoint_moves(num_steps: int, pebbles: int) -> List[Move]:
    """Bennett's recursive checkpointing under a pebble budget.

    Recursion: to pebble the end of a range given its start boundary,
    split at a midpoint checkpoint; pebble the midpoint, recurse on the
    second half with one pebble fewer, then unpebble the midpoint by
    re-running the first half backwards.  Requires
    ``pebbles >= ceil(log2(num_steps)) + 1``; raises otherwise.
    """
    if pebbles < 1:
        raise PebbleGameError("need at least one pebble")
    moves: List[Move] = []

    def sweep(start: int, end: int, place: bool) -> None:
        """(Un)pebble every step in [start, end) sequentially."""
        rng = range(start, end) if place else reversed(range(start, end))
        moves.extend((i, place) for i in rng)

    def solve(start: int, end: int, budget: int) -> None:
        """Pebble step end-1 (and clean the rest of [start, end));
        caller guarantees step start-1 is pebbled."""
        length = end - start
        if length <= 0:
            return
        if length <= budget:
            sweep(start, end, True)
            sweep(start, end - 1, False)
            return
        if budget <= 1:
            raise PebbleGameError(
                f"budget {pebbles} too small for {num_steps} steps"
            )
        mid = start + (length + 1) // 2
        # pebble the checkpoint mid-1 using the full budget
        solve(start, mid, budget)
        # pebble the result using the remaining budget
        solve(mid, end, budget - 1)
        # remove the checkpoint by re-running the first half
        unsolve(start, mid, budget - 1)

    def unsolve(start: int, end: int, budget: int) -> None:
        """Unpebble step end-1 (mirror of solve)."""
        length = end - start
        if length <= 0:
            return
        if length <= budget + 1:
            sweep(start, end - 1, True)
            sweep(start, end, False)
            return
        if budget <= 1:
            raise PebbleGameError(
                f"budget {pebbles} too small for {num_steps} steps"
            )
        mid = start + (length + 1) // 2
        solve(start, mid, budget)
        unsolve(mid, end, budget - 1)
        unsolve(start, mid, budget - 1)

    solve(0, num_steps, pebbles)
    return moves


def pebble_tradeoff_curve(
    num_steps: int, budgets: List[int]
) -> List[Tuple[int, int]]:
    """(pebbles, moves) points of the checkpointing strategy — the
    qubits-for-gates trade-off curve the paper's Sec. V describes."""
    points = []
    for budget in budgets:
        try:
            moves = checkpoint_moves(num_steps, budget)
        except PebbleGameError:
            continue
        peak = validate_moves(num_steps, moves)
        points.append((peak, len(moves)))
    return points
