"""Mapping reversible/MCT circuits into the Clifford+T gate set."""

from .barenco import (
    MappingError,
    map_to_clifford_t,
    mcx_clean_ancilla,
)
from .clifford_t import ccx_clifford_t
from .relative_phase import rccx, rccx_dagger
from .routing import (
    CouplingMap,
    RoutingError,
    RoutingResult,
    route_circuit,
    verify_routing,
)

__all__ = [
    "MappingError",
    "map_to_clifford_t",
    "mcx_clean_ancilla",
    "ccx_clifford_t",
    "rccx",
    "rccx_dagger",
    "CouplingMap",
    "RoutingError",
    "RoutingResult",
    "route_circuit",
    "verify_routing",
]
