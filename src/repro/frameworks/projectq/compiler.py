"""Compiler-chain backend: the full Fig. 2 flow behind the engine.

ProjectQ's "modular compiler design" (Sec. VI) chains compiler engines
between the programmer and the device.  :class:`CompilerBackend`
replicates that: circuits emitted by :class:`MainEngine` pass through

    revsimp-style cancellation -> Clifford+T mapping (rptm) ->
    T-par phase folding -> cancellation -> device routing

before reaching the actual execution backend, so the user's program is
automatically legal for a constrained chip.  The chain is the Sec. VII
device shape that :meth:`repro.compiler.Target.flow` builds for a
circuit workload, executed on the pass manager, so repeated flushes of identical circuits replay cached pass
results.  Compilation statistics of the last flush are kept for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...core.circuit import QuantumCircuit
from ...core.statistics import CircuitStatistics, circuit_statistics
from ...mapping.routing import CouplingMap, RoutingResult
from ...pipeline import Pipeline
from .backends import Backend, Simulator


@dataclass
class CompilationReport:
    """What the chain did on the last flush."""

    source_stats: CircuitStatistics
    compiled_stats: CircuitStatistics
    swap_count: int = 0
    routed: bool = False

    def as_dict(self) -> Dict[str, int]:
        out = {
            f"source_{k}": v for k, v in self.source_stats.as_dict().items()
        }
        out.update(
            {
                f"compiled_{k}": v
                for k, v in self.compiled_stats.as_dict().items()
            }
        )
        out["swaps"] = self.swap_count
        return out


class CompilerBackend(Backend):
    """Backend decorator running the full compilation chain.

    The chain is the ``projectq`` target preset, and the compiled
    circuit runs on a noiseless :class:`Simulator`.  One pass-manager
    runner, over the shared cache, serves every flush.

    Args:
        coupling: optional device topology; when given, the compiled
            circuit is routed onto it and measurements follow their
            logical qubits.
    """

    def __init__(self, coupling: Optional[CouplingMap] = None):
        from ... import compiler

        self.target = Simulator()
        compile_target = compiler.targets.PROJECTQ
        if coupling is not None:
            compile_target = compile_target.with_(coupling=coupling)
        self.compile_target = compile_target
        self.coupling = compile_target.coupling
        self.pipeline = Pipeline()
        self.report: Optional[CompilationReport] = None
        self.compiled_circuit: Optional[QuantumCircuit] = None
        self.routing: Optional[RoutingResult] = None

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        # measure gates keep their logical clbits through routing, so the
        # outcome is logical already: nothing to translate back
        return self.target.execute(self.compile(circuit))

    def compile(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Run the device flow through ``repro.compile`` and report."""
        from ... import compiler

        result = compiler.compile(
            circuit, target=self.compile_target, pipeline=self.pipeline
        )
        work = result.circuit
        self.routing = result.routing
        self.compiled_circuit = work
        self.report = CompilationReport(
            source_stats=circuit_statistics(circuit),
            compiled_stats=circuit_statistics(work),
            swap_count=self.routing.swap_count if self.routing else 0,
            routed=self.coupling is not None,
        )
        return work
