"""Boolean function layer: truth tables, ESOPs, BDDs, networks, bent functions."""

from .bdd import ONE, ZERO, Bdd, BddNode
from .bent import HiddenShiftInstance, MaioranaMcFarland, MaioranaMcFarlandDual
from .cube import Cube, esop_to_truth_table
from .esop import (
    best_fprm,
    exorcism,
    fprm,
    minimize_esop,
    minterm_cover,
    pprm,
)
from .expression import (
    ExpressionError,
    function_arity,
    predicate_to_truth_table,
)
from .network import LogicNetwork, Lut, LutNetwork, lut_map
from .permutation import BitPermutation
from .spectral import correlation, find_shift_classically, fwht
from .truth_table import MultiTruthTable, TruthTable

__all__ = [
    "ONE",
    "ZERO",
    "Bdd",
    "BddNode",
    "HiddenShiftInstance",
    "MaioranaMcFarland",
    "MaioranaMcFarlandDual",
    "Cube",
    "esop_to_truth_table",
    "best_fprm",
    "exorcism",
    "fprm",
    "minimize_esop",
    "minterm_cover",
    "pprm",
    "ExpressionError",
    "function_arity",
    "predicate_to_truth_table",
    "LogicNetwork",
    "Lut",
    "LutNetwork",
    "lut_map",
    "BitPermutation",
    "correlation",
    "find_shift_classically",
    "fwht",
    "MultiTruthTable",
    "TruthTable",
]
