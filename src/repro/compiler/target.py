"""Compilation targets: gate set, device topology, emitter, presets.

A :class:`Target` is an immutable description of *where* a compiled
circuit is going — its gate set (reversible MCT level or Clifford+T),
an optional device :class:`~repro.mapping.routing.CouplingMap`, the
optimization effort, the preferred synthesis method and the default
emission format.  :meth:`Target.flow` resolves a target against a
normalized :class:`~.frontends.Workload` into a concrete :class:`Flow`
built from the existing pass vocabulary.  Targets are the only named
recipes: the paper's Eq. (5) script is ``clifford_t``, the Fig. 10 Q#
preprocessing is ``qsharp``, and the Sec. VII device flow is
``ibm_qe5``; any other pass list runs through
:meth:`repro.pipeline.Pipeline.run` directly.

Resolution rules (also documented in docs/ARCHITECTURE.md):

1. the workload's prelude passes run first (specification generation);
2. function-level workloads get a synthesis pass — the target's
   ``synthesis`` override, else the frontend's recommendation;
3. ``optimization_level`` >= 1 adds cascade simplification
   (``revsimp``); reversible-level targets stop here;
4. quantum targets lower with the Clifford+T mapping, then level 1
   adds gate cancellation, level >= 2 the T-par stage;
5. a ``coupling`` appends device routing, ``collect_statistics`` the
   ``ps`` analysis pass;
6. quantum-circuit workloads skip 2-3 and run the Sec. VII device
   shape instead (cancel, on-need lowering, T-par at level >= 2,
   routing).

The module also holds the fixed table of named presets —
:data:`TOFFOLI`, :data:`CLIFFORD_T`, :data:`IBM_QE5`, :data:`QSHARP`
and :data:`PROJECTQ` — addressable by name everywhere a target is
accepted (``repro.compile(pi, target="ibm_qe5")``); any other target
is a :class:`Target` instance (e.g. ``CLIFFORD_T.with_(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple, Union

from ..emit import EmitterError
from ..emit import get as get_emitter
from ..engines import EngineError, NoiseModel, as_noise_model
from ..engines import get as get_engine
from ..mapping.routing import CouplingMap
from ..pipeline.passes import (
    CancelPass,
    MapToCliffordTPass,
    Pass,
    RoutePass,
    SimplifyPass,
    StatisticsPass,
    SynthesisPass,
    TparPass,
)
from ..pipeline.state import PipelineError
from ..verify.checker import as_checker
from .frontends import Workload, detect_workload

#: The Clifford+T basis the mapping stage emits.
CLIFFORD_T_GATES = ("h", "s", "sdg", "t", "tdg", "x", "z", "cx")

#: The reversible (multiple-controlled Toffoli) level.
MCT_GATES = ("mct",)


@dataclass(frozen=True)
class Flow:
    """A named, immutable pass sequence — what :meth:`Target.flow` builds.

    Attributes:
        name: ``<target>[<workload kind>]``, used in error context.
        description: one-line summary shown in reports.
        passes: the pass sequence, first to last.
    """

    name: str
    description: str
    passes: Tuple[Pass, ...]

    def __str__(self) -> str:
        """Return ``name: pass1 -> pass2 -> ...``."""
        chain = " -> ".join(p.name for p in self.passes)
        return f"{self.name}: {chain}"


@dataclass(frozen=True)
class Target:
    """An immutable compilation target.

    Attributes:
        name: identifier (lowercase) shown in flow names and listings.
        description: one-line summary shown by ``list_targets``.
        gate_set: the output basis — :data:`MCT_GATES` keeps the flow
            at the reversible level, :data:`CLIFFORD_T_GATES` lowers
            to Clifford+T; any other value is refused.
        coupling: device topology to route onto (``None`` = all-to-all).
        optimization_level: 0 = none, 1 = simplification +
            cancellation, 2 = additionally T-par phase folding; any
            other value is refused.
        emitter: default emission format of
            :meth:`~.result.CompilationResult.emit` — any
            :mod:`repro.emit` format name or alias (``qasm2``,
            ``qsharp``, ``projectq``), canonicalized at
            construction; unknown names raise with the format list.
        synthesis: synthesis method override (name or callable); the
            frontend recommendation is used when ``None``.
        relative_phase: use relative-phase Toffolis in the mapping.
        collect_statistics: append the ``ps`` statistics pass.
        verify: default verification mode for compilations against
            this target — ``"off"`` (default), ``"auto"`` (tiered
            checking of every pass), ``"strict"`` (a skipped check
            also fails), or ``True``/``False``; an explicit
            ``repro.compile(verify=...)`` argument overrides it.
        engine: default simulation backend of
            :meth:`~.result.CompilationResult.simulate` — any
            :mod:`repro.engines` name or alias (``statevector``,
            ``stabilizer``, ``density_matrix``, ``monte_carlo``),
            canonicalized at construction; unknown names raise with
            the engine list.  An
            explicit ``simulate(engine=...)`` argument overrides it.
        noise: default :class:`~repro.engines.noise.NoiseModel` for
            simulations against this target (also accepts a preset
            name like ``"qe5"`` or a ``"p1=0.001"`` rate list,
            resolved at construction); only applied when the selected
            engine supports noise.
    """

    name: str
    description: str = ""
    gate_set: Tuple[str, ...] = CLIFFORD_T_GATES
    coupling: Optional[CouplingMap] = None
    optimization_level: int = 2
    emitter: Optional[str] = None
    synthesis: Optional[Union[str, Callable]] = field(default=None)
    relative_phase: bool = True
    collect_statistics: bool = False
    verify: Union[bool, str] = "off"
    engine: Optional[str] = None
    noise: Union[NoiseModel, str, None] = None

    def __post_init__(self) -> None:
        """Vet the pass-picking fields, canonicalize the backend names.

        Raises:
            PipelineError: for an ``optimization_level`` outside
                {0, 1, 2} or a ``gate_set`` other than the two bases,
                for emission formats, engines or noise specs that do
                not exist (the message lists the known ones), or an
                unknown verification mode.
        """
        level = self.optimization_level
        if type(level) is not int or level not in (0, 1, 2):
            raise PipelineError(
                f"target {self.name!r}: optimization_level must be 0, 1 "
                f"or 2, got {level!r}"
            )
        if self.gate_set not in (MCT_GATES, CLIFFORD_T_GATES):
            raise PipelineError(
                f"target {self.name!r}: gate_set must be MCT_GATES "
                f"{MCT_GATES} or CLIFFORD_T_GATES {CLIFFORD_T_GATES}, "
                f"got {self.gate_set!r}"
            )
        try:
            as_checker(self.verify)
        except ValueError as exc:
            raise PipelineError(f"target {self.name!r}: {exc}") from exc
        if self.engine is not None:
            try:
                canonical_engine = get_engine(self.engine).name
            except EngineError as exc:
                raise PipelineError(f"target {self.name!r}: {exc}") from exc
            if canonical_engine != self.engine:
                object.__setattr__(self, "engine", canonical_engine)
        if self.noise is not None:
            try:
                resolved = as_noise_model(self.noise)
            except EngineError as exc:
                raise PipelineError(f"target {self.name!r}: {exc}") from exc
            if resolved is not self.noise:
                object.__setattr__(self, "noise", resolved)
        if self.emitter is None:
            return
        try:
            canonical = get_emitter(self.emitter).name
        except EmitterError as exc:
            raise PipelineError(
                f"target {self.name!r}: {exc}"
            ) from exc
        if canonical != self.emitter:
            object.__setattr__(self, "emitter", canonical)

    def with_(self, **changes) -> "Target":
        """Return a copy of the target with fields replaced.

        Args:
            **changes: field name/value pairs to override.

        Returns:
            The derived :class:`Target`.
        """
        return replace(self, **changes)

    @property
    def reversible_level(self) -> bool:
        """Whether the target stays at the reversible MCT level."""
        return self.gate_set == MCT_GATES

    # ------------------------------------------------------------------
    def flow(self, workload) -> Flow:
        """Resolve the target against a workload into a concrete flow.

        Args:
            workload: a :class:`~.frontends.Workload` (or any raw
                workload shape, normalized via
                :func:`~.frontends.detect_workload`).

        Returns:
            The :class:`Flow` realizing this target for that workload,
            built from the existing pass vocabulary.

        Raises:
            PipelineError: when the workload provides nothing to
                compile, or a quantum circuit is handed to a
                reversible-level target.
        """
        if not isinstance(workload, Workload):
            workload = detect_workload(workload)
        level = self.optimization_level
        passes = list(workload.prelude)
        state = workload.state
        if workload.needs_synthesis or passes:
            passes.append(
                SynthesisPass(self.synthesis or workload.synthesis or "tbs")
            )
            passes.extend(self._reversible_tail(level))
        elif state.quantum is not None:
            if self.reversible_level:
                raise PipelineError(
                    f"target {self.name!r} is reversible-level (MCT) but "
                    f"workload {workload.description} is already a "
                    "quantum circuit"
                )
            # the Sec. VII device shape
            passes.append(CancelPass())
            passes.append(
                MapToCliffordTPass(relative_phase=True, only_if_needed=True)
            )
            if level >= 2:
                passes.append(TparPass(pre_cancel=False))
            if self.coupling is not None:
                passes.append(RoutePass(self.coupling))
            if self.collect_statistics:
                passes.append(StatisticsPass())
        elif state.reversible is not None:
            passes.extend(self._reversible_tail(level))
        else:
            raise PipelineError(
                f"workload {workload.description} provides nothing to "
                "compile; pass a specification or a circuit"
            )
        return Flow(
            name=f"{self.name}[{workload.kind}]",
            description=(
                f"target {self.name}: {workload.description}"
            ),
            passes=tuple(passes),
        )

    def _reversible_tail(self, level: int) -> Tuple[Pass, ...]:
        """Build the pass tail from the reversible level downward."""
        passes = []
        if level >= 1:
            passes.append(SimplifyPass())
        if self.reversible_level:
            if self.collect_statistics:
                raise PipelineError(
                    f"target {self.name!r}: collect_statistics needs a "
                    "quantum circuit, but the target is "
                    "reversible-level (MCT); drop the flag or lower "
                    "the gate set"
                )
            return tuple(passes)
        passes.append(
            MapToCliffordTPass(relative_phase=self.relative_phase)
        )
        if level == 1:
            passes.append(CancelPass())
        elif level >= 2:
            passes.append(TparPass(pre_cancel=True))
        if self.coupling is not None:
            passes.append(RoutePass(self.coupling))
        if self.collect_statistics:
            passes.append(StatisticsPass())
        return tuple(passes)


#: Reversible MCT level: synthesis plus cascade simplification.
TOFFOLI = Target(
    name="toffoli",
    description="reversible MCT cascade (synthesis + revsimp)",
    gate_set=MCT_GATES,
    optimization_level=1,
)

#: The Eq. (5) shape: Clifford+T with T-par and final statistics.
CLIFFORD_T = Target(
    name="clifford_t",
    description="Clifford+T with T-par optimization (Eq. 5 shape)",
    optimization_level=2,
    collect_statistics=True,
)

#: The paper's 5-qubit IBM QE bowtie chip, with routing, QASM out, and
#: the exact noisy simulation tier at the device's calibration rates.
IBM_QE5 = Target(
    name="ibm_qe5",
    description="IBM QE 5-qubit bowtie chip (routed, QASM emitter)",
    coupling=CouplingMap.ibm_qx2(),
    optimization_level=2,
    emitter="qasm2",
    engine="density_matrix",
    noise="qe5",
)

#: The Fig. 10 Q# preprocessing shape with the Q# emitter.
QSHARP = Target(
    name="qsharp",
    description="Q# oracle preprocessing (Fig. 10 shape, Q# emitter)",
    optimization_level=1,
    emitter="qsharp",
)

#: The ProjectQ compiler-chain shape (all-to-all) with eDSL emission.
PROJECTQ = Target(
    name="projectq",
    description="ProjectQ compiler chain (all-to-all, eDSL emitter)",
    optimization_level=2,
    emitter="projectq",
)

#: The presets by name, in listing order; the set is closed.
_PRESETS: Dict[str, Target] = {
    preset.name: preset
    for preset in (TOFFOLI, CLIFFORD_T, IBM_QE5, QSHARP, PROJECTQ)
}


def get_target(spec: Union[Target, str, None]) -> Target:
    """Resolve a target argument to a :class:`Target` instance.

    Args:
        spec: a target, a preset name (case-insensitive), or ``None``
            for the default (:data:`CLIFFORD_T`).

    Returns:
        The resolved target.

    Raises:
        PipelineError: for unknown names (the message lists the
            presets).
    """
    if spec is None:
        return CLIFFORD_T
    if isinstance(spec, Target):
        return spec
    target = _PRESETS.get(str(spec).lower())
    if target is None:
        raise PipelineError(
            f"unknown target {spec!r}; registered targets: "
            f"{', '.join(list_targets())}"
        )
    return target


def list_targets() -> Tuple[str, ...]:
    """Return the preset target names in listing order."""
    return tuple(_PRESETS)
