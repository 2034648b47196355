"""repro — reproduction of "Programming Quantum Computers Using Design
Automation" (Soeken, Häner, Roetteler, DATE 2018).

Subpackages
-----------
``repro.core``
    Quantum circuit IR: gates, circuits, statistics, DAG.
``repro.emit``
    The fixed table of emission formats rendering compiled circuits
    as OpenQASM 2/3, Q# or ProjectQ, with round-trip import for
    OpenQASM 2 and Q#.
``repro.simulator``
    The states the engines evolve (statevector, CHP stabilizer
    tableau), the shared gate kernels and the resource counter.
``repro.engines``
    The simulation-engine table: statevector, stabilizer,
    Monte-Carlo and exact density-matrix backends behind one
    ``repro.engines.run(engine, circuit, ...)`` front door, with the
    shared ``NoiseModel`` and its IBM-QE calibration preset.
``repro.boolean``
    Boolean function layer: truth tables, ESOPs, BDDs, XAG networks,
    bent functions, permutations, Python-predicate compilation.
``repro.synthesis``
    Reversible logic synthesis: transformation-based, decomposition-
    based, ESOP-based, BDD-based, LUT-based (LHRS), embeddings, exact
    search, pebble games.
``repro.mapping``
    Toffoli-network to Clifford+T mapping (Barenco ladders,
    relative-phase Toffolis).
``repro.optimization``
    revsimp gate cancellation and T-par phase folding.
``repro.pipeline``
    The pass manager: a unified compilation pipeline with per-pass
    statistics, result caching and verification, running any pass
    list (``Pipeline.run``) under an optional cooperative
    ``Deadline``.
``repro.verify``
    Tiered equivalence checking: the ``EquivalenceChecker`` picks the
    cheapest sound tier per pass (permutation tables, stabilizer
    tableaus, dense unitaries, seeded fidelity probes), every verdict
    names its tier, and skipped checks are always explicit.
``repro.compiler``
    The compiler facade: ``repro.compile(workload, target=...)``
    normalizes any workload shape, resolves a ``Target`` preset to a
    pass sequence — targets are the only named recipes: the paper's
    flows are ``clifford_t`` (Eq. 5), ``qsharp`` (Fig. 10) and
    ``ibm_qe5`` (Sec. VII) — and returns a ``CompilationResult`` with lazy
    QASM/Q#/ProjectQ emission; ``CompilerSession`` batches
    compilations and parameter sweeps over a shared pass cache.
``repro.frameworks``
    ProjectQ-compatible eDSL and Q# code generation.
``repro.revkit``
    The RevKit command shell (``revgen; tbs; revsimp; rptm; tpar; ps``).
``repro.algorithms``
    Hidden shift (the paper's running example), Grover, Simon.
"""

__version__ = "1.0.0"

from . import (
    algorithms,
    arith,
    boolean,
    compiler,
    core,
    emit,
    engines,
    mapping,
    optimization,
    pipeline,
    revkit,
    simulator,
    synthesis,
    verify,
)
from .compiler import (
    CompilationResult,
    CompilerSession,
    Target,
    compile,
    targets,
)

__all__ = [
    "algorithms",
    "arith",
    "boolean",
    "compiler",
    "core",
    "emit",
    "engines",
    "mapping",
    "optimization",
    "pipeline",
    "revkit",
    "simulator",
    "synthesis",
    "verify",
    "CompilationResult",
    "CompilerSession",
    "Target",
    "compile",
    "targets",
    "__version__",
]
