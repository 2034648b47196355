"""Optimization passes: revsimp (cancellation) and tpar (phase folding)."""

from .phase_polynomial import greedy_t_layers, is_region_gate
from .simplify import cancel_adjacent_gates, simplify_reversible
from .templates import template_optimize
from .tpar import (
    region_statistics,
    t_depth_estimate,
    tpar_optimize,
)

__all__ = [
    "greedy_t_layers",
    "is_region_gate",
    "cancel_adjacent_gates",
    "simplify_reversible",
    "template_optimize",
    "region_statistics",
    "t_depth_estimate",
    "tpar_optimize",
]
