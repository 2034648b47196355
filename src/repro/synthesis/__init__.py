"""Reversible logic synthesis: the RevKit algorithm suite (Sec. V)."""

from .bdd_based import BddSynthesisResult, bdd_synthesis
from .decomposition import (
    decomposition_based_synthesis,
    young_subgroup_decomposition,
)
from .embedding import (
    bennett_embedding,
    explicit_embedding,
    minimum_garbage_bits,
    verify_bennett_circuit,
)
from .esop_based import cubes_to_mct, esop_synthesis
from .exact import all_mct_gates, exact_synthesis
from .lut_based import (
    AncillaBudgetError,
    LutSynthesisResult,
    lut_synthesis,
    lut_synthesis_from_mapping,
)
from .pebbling import (
    PebbleGameError,
    checkpoint_moves,
    pebble_tradeoff_curve,
    validate_moves,
)
from .reversible import MctGate, ReversibleCircuit
from .single_target import SingleTargetGate, single_target_gates_to_circuit
from .transformation import (
    bidirectional_synthesis,
    transformation_based_synthesis,
)

__all__ = [
    "BddSynthesisResult",
    "bdd_synthesis",
    "decomposition_based_synthesis",
    "young_subgroup_decomposition",
    "bennett_embedding",
    "explicit_embedding",
    "minimum_garbage_bits",
    "verify_bennett_circuit",
    "cubes_to_mct",
    "esop_synthesis",
    "all_mct_gates",
    "exact_synthesis",
    "AncillaBudgetError",
    "LutSynthesisResult",
    "lut_synthesis",
    "lut_synthesis_from_mapping",
    "PebbleGameError",
    "checkpoint_moves",
    "pebble_tradeoff_curve",
    "validate_moves",
    "MctGate",
    "ReversibleCircuit",
    "SingleTargetGate",
    "single_target_gates_to_circuit",
    "bidirectional_synthesis",
    "transformation_based_synthesis",
]
