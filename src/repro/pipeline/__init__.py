"""Unified compilation pipeline — the pass manager.

The paper's artifact is a *compilation flow* (Sec. VI, Eq. (5)):
specification generation, reversible synthesis, cascade
simplification, Clifford+T mapping, T-count optimization, device
routing.  This subsystem makes that flow a first-class object:

* :class:`~.passes.Pass` — one step, wrapping an existing entry point
  (``transformation_based_synthesis``, ``simplify_reversible``,
  ``map_to_clifford_t``, ``tpar_optimize``, ``route_circuit``, ...);
* :class:`~.runner.Pipeline` — the runner: per-pass timing,
  gate-count/T-count deltas, fail-fast functional verification behind
  a flag, and a content-keyed result cache so repeated flows skip
  recomputation.

:meth:`~.runner.Pipeline.run` executes any pass list.  The paper's
named pipelines are compilation targets
(:mod:`repro.compiler.target`: ``clifford_t`` for Eq. (5), ``qsharp``
for Fig. 10, ``ibm_qe5`` for Sec. VII), which ``repro.compile``
resolves to pass lists and runs here.  The RevKit shell, the
Q#/ProjectQ framework flows and the paper-flow benchmarks all
dispatch through this package.
"""

from .cache import PassCache, shared_cache
from .passes import (
    GENERATOR_KINDS,
    CancelPass,
    GeneratePass,
    MapToCliffordTPass,
    Pass,
    RoutePass,
    SimplifyPass,
    StatisticsPass,
    SynthesisPass,
    TemplatePass,
    TparPass,
)
from .runner import (
    PassRecord,
    Pipeline,
    PipelineResult,
    VerificationError,
    format_records,
    state_metrics,
)
from .state import FlowState, PipelineError, state_key, state_token

__all__ = [
    "PassCache",
    "shared_cache",
    "GENERATOR_KINDS",
    "CancelPass",
    "GeneratePass",
    "MapToCliffordTPass",
    "Pass",
    "RoutePass",
    "SimplifyPass",
    "StatisticsPass",
    "SynthesisPass",
    "TemplatePass",
    "TparPass",
    "PassRecord",
    "Pipeline",
    "PipelineResult",
    "VerificationError",
    "format_records",
    "state_metrics",
    "FlowState",
    "PipelineError",
    "state_key",
    "state_token",
]
