"""The compiler facade — ``repro.compile()`` as the one front door.

The paper's pitch is that a programmer hands a classical function to a
design-automation flow and gets a device-ready quantum circuit back.
This package is that front door, in four layers:

* :mod:`~.frontends` — auto-detect and normalize any workload shape
  (truth table, permutation, predicate, expression string, ESOP, BDD,
  generator spec, or an existing circuit) into a
  :class:`~.frontends.Workload`;
* :mod:`~.target` (aliased as ``targets``) — the immutable
  :class:`~.target.Target` (gate set, coupling map, optimization
  level, emitter) with the fixed presets ``targets.TOFFOLI``,
  ``targets.CLIFFORD_T``, ``targets.IBM_QE5``, ``targets.QSHARP``,
  ``targets.PROJECTQ``, resolved to pass sequences
  (:meth:`~.target.Target.flow`) — the only named recipes for the
  paper's flows;
* :mod:`~.result` — :class:`~.result.CompilationResult`: final
  circuit, per-pass records, statistics, and lazy
  ``emit``/``to_qasm``/``to_projectq`` emission;
* :mod:`~.session` — :func:`compile` itself plus
  :class:`~.session.CompilerSession` for batched compilation and
  parameter sweeps over a shared (optionally disk-backed) pass cache.

The framework entry points (Q# oracle generation, the ProjectQ
compiler chain) and the algorithm oracle builders dispatch through
this facade.
"""

from . import target as targets
from .frontends import (
    SUPPORTED_SHAPES,
    Workload,
    WorkloadError,
    as_truth_table,
    detect_workload,
    expression_to_truth_table,
)
from .result import CompilationResult, EmissionError
from .session import (
    CompilerSession,
    SweepPoint,
    SweepResult,
    compile,
)
from .target import (
    CLIFFORD_T,
    IBM_QE5,
    PROJECTQ,
    QSHARP,
    TOFFOLI,
    Target,
    get_target,
    list_targets,
)

__all__ = [
    "targets",
    "SUPPORTED_SHAPES",
    "Workload",
    "WorkloadError",
    "as_truth_table",
    "detect_workload",
    "expression_to_truth_table",
    "CompilationResult",
    "EmissionError",
    "CompilerSession",
    "SweepPoint",
    "SweepResult",
    "compile",
    "CLIFFORD_T",
    "IBM_QE5",
    "PROJECTQ",
    "QSHARP",
    "TOFFOLI",
    "Target",
    "get_target",
    "list_targets",
]
