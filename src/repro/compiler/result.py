"""Compilation results: final artifacts, per-pass records, emission.

:class:`CompilationResult` is what :func:`repro.compile` returns — the
final :class:`~repro.pipeline.state.FlowState`, the per-pass
:class:`~repro.pipeline.runner.PassRecord` list with timing and
gate/T-count deltas, and lazy emission: :meth:`~CompilationResult.emit`
dispatches any :mod:`repro.emit` format (the legacy
:meth:`~CompilationResult.to_qasm` and
:meth:`~CompilationResult.to_projectq` are thin wrappers over it),
rendering the compiled circuit on first use.  The text memo lives on
the frozen compiled circuit itself, not on the result, so it cannot go
stale and every result replayed from one cache entry shares it;
``result.circuit.copy()`` is the editable builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..simulator.statevector import SimulationResult

from ..core.circuit import QuantumCircuit
from ..core.statistics import CircuitStatistics
from ..emit import EmitterError, describe_formats
from ..emit import get as get_emitter
from ..engines import NoiseModel, as_noise_model
from ..engines import get as get_engine
from ..pipeline.runner import PassRecord, RecordedRun, state_metrics
from ..pipeline.state import FlowState, PipelineError
from .frontends import Workload
from .target import Flow, Target


class EmissionError(PipelineError, EmitterError):
    """Raised when a result cannot be rendered in the asked format."""


@dataclass
class CompilationResult(RecordedRun):
    """What one :func:`repro.compile` call produced.

    Attributes:
        workload: the normalized input workload.
        target: the resolved target.
        flow: the flow that actually executed.
        state: the final flow store.
        records: per-pass execution records, in order.
        cache_stats: snapshot of the pass cache's counters
            (entries/hits/misses/evictions, plus the resilience
            counters — ``io_errors`` with its memory/disk split,
            ``retries``, ``quarantined``, ``degraded`` — see
            :meth:`repro.pipeline.PassCache.stats`) taken when this
            compilation finished; ``None`` when it ran uncached.
        engine: the simulation backend requested at compile time
            (``repro.compile(..., engine=)``), canonical name or
            ``None``; :meth:`simulate` prefers it over the target's
            default.
    """

    workload: Workload
    target: Target
    flow: Flow
    state: FlowState
    records: List[PassRecord]
    cache_stats: Optional[Dict[str, int]] = None
    engine: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def circuit(self) -> Optional[QuantumCircuit]:
        """Return the final quantum circuit (or ``None``)."""
        return self.state.quantum

    @property
    def statistics(self) -> Optional[CircuitStatistics]:
        """Return the ``ps`` statistics bundle when collected."""
        return self.state.artifacts.get("statistics")

    @property
    def cache_hits(self) -> int:
        """Return how many passes replayed cached results."""
        return sum(1 for record in self.records if record.cache_hit)

    def verification_report(self) -> str:
        """Format each pass's verification verdict, one per line.

        Returns:
            Lines of ``<pass>: <status> (tier <tier>, <ms>)`` — or a
            single placeholder line when the compilation ran
            unverified.
        """
        lines = []
        for record in self.records:
            if record.verification is None:
                continue
            lines.append(f"{record.name}: {record.verification.describe()}")
        if not lines:
            return "(compilation ran unverified)"
        return "\n".join(lines)

    def metrics(self) -> Dict[str, Any]:
        """Return the cost metrics of the final store.

        Returns:
            The :func:`~repro.pipeline.runner.state_metrics` dict of
            the final state (``gates``, ``t_count``, ...).
        """
        return state_metrics(self.state)

    def summary(self) -> str:
        """Return a one-line workload/target/cost summary."""
        parts = [
            f"workload={self.workload.description}",
            f"target={self.target.name}",
            f"passes={len(self.records)}",
            f"cached={self.cache_hits}",
        ]
        metrics = self.metrics()
        for key in ("mct_gates", "gates", "t_count", "qubits"):
            if key in metrics:
                parts.append(f"{key}={metrics[key]}")
        return "  ".join(parts)

    # ------------------------------------------------------------------
    # lazy emission
    # ------------------------------------------------------------------
    def _require_circuit(self, format_name: str) -> QuantumCircuit:
        """Return the final quantum circuit or raise for emission."""
        if self.state.quantum is None:
            raise EmissionError(
                f"cannot emit {format_name}: the flow produced no "
                "quantum circuit (reversible-level target?)"
            )
        return self.state.quantum

    def to_qasm(self) -> str:
        """Render the compiled circuit as OpenQASM 2.0 (cached).

        Returns:
            The OpenQASM source text.
        """
        return self.emit("qasm2")

    def to_projectq(self) -> str:
        """Render the compiled circuit as a ProjectQ eDSL script (cached).

        Returns:
            Python source that replays the circuit through
            :mod:`repro.frameworks.projectq`.
        """
        return self.emit("projectq")

    def emit(self, format: Optional[str] = None, **opts) -> str:
        """Render in the given (or the default) format, memoized.

        Any :mod:`repro.emit` format is accepted;
        when ``format`` is omitted, the target's ``emitter`` is used.
        The rendered text is memoized on the frozen circuit per
        ``(format, opts)``, so repeated calls — from this result or
        any other holding the same circuit — return the same object.

        Args:
            format: a format name or alias (``qasm2``, ``qsharp``,
                ``projectq``); ``None`` selects the default emitter.
            **opts: backend-specific options (e.g. the Q# backend's
                ``name=``).

        Returns:
            The emitted source text.

        Raises:
            EmissionError: when no format is given and the target has
                no default emitter, when the format is unknown (both
                messages list the formats), or when the
                circuit has gates the backend cannot express.
        """
        if format is None:
            format = self.target.emitter
        if format is None:
            raise EmissionError(
                "no emission format: pass format= or compile for a "
                "target with a default emitter; registered formats: "
                f"{describe_formats()}"
            )
        try:
            emitter = get_emitter(format)
        except EmitterError as exc:
            raise EmissionError(str(exc)) from exc
        circuit = self._require_circuit(emitter.name)
        options = ", ".join(f"{k}={v!r}" for k, v in sorted(opts.items()))
        try:
            return circuit.memoized(
                ("emit", emitter.name, options),
                lambda: emitter.emit(circuit, **opts),
            )
        except EmissionError:
            raise
        except EmitterError as exc:
            raise EmissionError(str(exc)) from exc

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        engine: Optional[str] = None,
        shots: int = 1024,
        noise: Union[NoiseModel, str, None] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> "SimulationResult":
        """Run the compiled circuit on a simulation engine.

        Backend precedence: the explicit ``engine`` argument, then the
        ``engine=`` recorded at compile time, then the target's
        ``engine`` field, then ``statevector``.  The target's default
        ``noise`` model is applied when no ``noise`` argument is given
        and the selected backend supports noise (a noiseless backend
        silently skips the target default, but an *explicit* noise
        argument it cannot honor still raises).  Circuits without
        measurements get a terminal measure-all copy so every engine
        returns counts.

        Args:
            engine: engine name or alias (``statevector``,
                ``stabilizer``, ``density_matrix``, ``monte_carlo``);
                ``None`` follows the precedence above.
            shots: measurement repetitions to report.
            noise: a :class:`~repro.engines.noise.NoiseModel`, a
                preset name (``"qe5"``), a ``"p1=0.001"`` rate list,
                or ``None`` for the target default.
            seed: RNG seed for reproducible sampling.
            **opts: backend-specific options.

        Returns:
            The run's
            :class:`~repro.simulator.statevector.SimulationResult`.

        Raises:
            PipelineError: when the flow produced no quantum circuit.
            EngineError: for unknown engines/noise specs, or jobs the
                backend cannot run.
        """
        if self.state.quantum is None:
            raise PipelineError(
                "cannot simulate: the flow produced no quantum circuit "
                "(reversible-level target?)"
            )
        name = engine or self.engine or self.target.engine
        backend = get_engine(name or "statevector")
        model = as_noise_model(noise)
        if (
            model is None
            and noise is None
            and backend.capabilities.noise
        ):
            model = as_noise_model(self.target.noise)
        circuit = self.state.quantum
        if not circuit.has_measurements():
            circuit = circuit.copy()
            circuit.measure_all()
        return backend.run(
            circuit, shots=shots, noise=model, seed=seed, **opts
        )
