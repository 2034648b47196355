"""Hand-wired references for the paper's three flows.

Each function calls the library entry points directly, in the order
the paper describes, with no pass manager, cache or target in between.
Tests compare ``repro.compile(..., target=...)`` with these gate for
gate.
"""

from repro.mapping.barenco import map_to_clifford_t
from repro.mapping.routing import route_circuit
from repro.optimization.simplify import (
    cancel_adjacent_gates,
    simplify_reversible,
)
from repro.optimization.tpar import tpar_optimize
from repro.synthesis.transformation import transformation_based_synthesis


def eq5(perm, synthesize=transformation_based_synthesis):
    """Sec. VI, Eq. (5): ``tbs; revsimp; rptm; tpar`` on ``perm``.

    Returns:
        ``(reversible, mapped, optimized)``: the simplified cascade,
        its relative-phase Clifford+T mapping and the T-par result.
    """
    reversible = simplify_reversible(synthesize(perm))
    mapped = map_to_clifford_t(reversible, relative_phase=True)
    optimized = cancel_adjacent_gates(
        tpar_optimize(cancel_adjacent_gates(mapped))
    )
    return reversible, mapped, optimized


def qsharp(perm, relative_phase=True):
    """Sec. VIII, Fig. 10: ``tbs; revsimp; rptm; cancel`` on ``perm``."""
    reversible = simplify_reversible(transformation_based_synthesis(perm))
    return cancel_adjacent_gates(
        map_to_clifford_t(reversible, relative_phase=relative_phase)
    )


def device(circuit, coupling, level=2):
    """Sec. VII: cancel, lower to Clifford+T, T-par (level 2), route.

    Returns:
        The :class:`~repro.mapping.routing.RoutingResult`.
    """
    work = map_to_clifford_t(cancel_adjacent_gates(circuit))
    if level >= 2:
        work = cancel_adjacent_gates(tpar_optimize(work))
    return route_circuit(work, coupling)
