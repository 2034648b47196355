"""The compile facade and batched compilation sessions.

:func:`compile` is the library's one front door: normalize any
workload shape (:mod:`~.frontends`), resolve a :class:`~.target.Target`
to a concrete flow, execute it on the pass manager, and hand back a
:class:`~.result.CompilationResult`.

:class:`CompilerSession` amortizes many compilations:
:meth:`~CompilerSession.sweep` expands a parameter grid into
compilation points and compiles them one after another in the calling
thread, in grid order, all sharing one
:class:`~repro.pipeline.cache.PassCache` object (optionally
disk-backed via ``cache=<path>``, which also lets separate processes
share results), so repeated sub-flows replay instead of recompute.
The first failing point's exception propagates unwrapped.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..engines import EngineError
from ..engines import get as get_engine
from ..pipeline.cache import PassCache, shared_cache
from ..pipeline.passes import GENERATOR_KINDS
from ..pipeline.runner import Deadline, Pipeline
from ..pipeline.state import PipelineError
from ..verify.checker import EquivalenceChecker
from .frontends import detect_workload
from .result import CompilationResult
from .target import Target, get_target

#: Sweep parameter keys that derive a per-point target override.
_TARGET_FIELDS = tuple(
    f.name for f in dataclass_fields(Target) if f.name != "name"
)

#: Generator option keys accepted alongside a family key in sweeps.
_GENERATOR_OPTION_KEYS = ("seed", "const", "amount")


def _resolve_cache(
    cache: Union[PassCache, str, os.PathLike, None]
) -> Optional[PassCache]:
    """Map a cache argument to a PassCache instance (or ``None``).

    ``"shared"`` selects the process-wide cache; any other string or
    path selects a disk-backed cache rooted there.
    """
    if cache is None or isinstance(cache, PassCache):
        return cache
    if cache == "shared":
        return shared_cache()
    return PassCache(path=os.fspath(cache))


def compile(
    workload: Any,
    target: Union[Target, str, None] = None,
    verify: Union[bool, str, EquivalenceChecker, None] = None,
    cache: Union[PassCache, str, None] = "shared",
    pipeline: Optional[Pipeline] = None,
    deadline: Union[Deadline, float, None] = None,
    engine: Optional[str] = None,
) -> CompilationResult:
    """Compile any workload for a target — the one front door.

    Normalizes the workload (:func:`~.frontends.detect_workload`),
    resolves the target to a pass sequence
    (:meth:`~.target.Target.flow`), executes it on the pass manager,
    and returns the bundled result.

    Args:
        workload: anything :func:`~.frontends.detect_workload`
            accepts — specification, predicate, expression string,
            generator spec or circuit.
        target: a :class:`~.target.Target`, a preset target name,
            or ``None`` for the default (``clifford_t``).
        verify: fail-fast functional verification of every pass —
            ``"auto"``/``True`` runs the tiered
            :class:`~repro.verify.EquivalenceChecker` (every pass
            record names the tier that checked it), ``"strict"``
            additionally fails on skipped checks, ``"off"``/``False``
            disables, a configured checker is used as-is, and
            ``None`` (default) defers to the target's ``verify``
            field.
        cache: a :class:`~repro.pipeline.cache.PassCache`,
            ``"shared"`` (default) for the process-wide cache, a
            directory path for a disk-backed cache, or ``None``.
        pipeline: explicit pass-manager runner; overrides ``verify``
            and ``cache``.
        deadline: compute budget for the whole compilation — a
            :class:`~repro.pipeline.Deadline` or a number of
            seconds; checked cooperatively before every pass, an
            expired budget raises
            :class:`~repro.pipeline.DeadlineExceeded` naming the
            flow position.
        engine: default simulation backend for
            :meth:`~.result.CompilationResult.simulate` — any
            :mod:`repro.engines` name or alias, validated here; ``None`` defers to the target's ``engine`` field.

    Returns:
        The :class:`~.result.CompilationResult` with the final
        circuit, per-pass records and lazy emitters.

    Raises:
        WorkloadError: when the workload is not a supported shape.
        PipelineError: when ``pipeline=`` is combined with
            ``deadline`` — the explicit runner carries its own
            deadline; ignoring a requested one silently would be
            worse than refusing.
    """
    normalized = detect_workload(workload)
    resolved_target = get_target(target)
    if engine is not None:
        try:
            engine = get_engine(engine).name
        except EngineError as exc:
            raise PipelineError(str(exc)) from exc
    if verify is None:
        verify = resolved_target.verify
    resolved_flow = resolved_target.flow(normalized)
    if pipeline is not None and deadline is not None:
        raise PipelineError(
            "compile(pipeline=...) conflicts with deadline=; "
            "configure it on the Pipeline instead"
        )
    if pipeline is None:
        pipeline = Pipeline(
            verify=verify,
            cache=_resolve_cache(cache),
            deadline=deadline,
        )
    # every circuit of a result is frozen (emission memoizes on it),
    # but never the caller's own builder: freeze a copy of that
    state = normalized.state.copy()
    for name in ("reversible", "quantum"):
        circuit = getattr(state, name)
        if circuit is not None and not circuit.frozen:
            setattr(state, name, circuit.copy().freeze())
    outcome = pipeline.run(resolved_flow, state)
    return CompilationResult(
        workload=normalized,
        target=resolved_target,
        flow=resolved_flow,
        state=outcome.state,
        records=outcome.records,
        cache_stats=(
            pipeline.cache.stats() if pipeline.cache is not None else None
        ),
        engine=engine,
    )


# ----------------------------------------------------------------------
# batched sessions
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    """One grid point: the parameter assignment and its result."""

    params: Dict[str, Any]
    result: CompilationResult


@dataclass
class SweepResult:
    """All points of one parameter sweep, in deterministic grid order."""

    points: List[SweepPoint]

    def __len__(self) -> int:
        """Return the number of swept points."""
        return len(self.points)

    def __iter__(self):
        """Iterate over the :class:`SweepPoint` entries."""
        return iter(self.points)

    @property
    def cache_hits(self) -> int:
        """Return the summed per-pass cache hits across all points."""
        return sum(point.result.cache_hits for point in self.points)

    def best(self, metric: str = "t_count") -> SweepPoint:
        """Return the point minimizing a final-state metric.

        Args:
            metric: a :func:`~repro.pipeline.runner.state_metrics`
                key (``t_count``, ``gates``, ``mct_gates``, ...).

        Returns:
            The minimizing :class:`SweepPoint`.

        Raises:
            PipelineError: when no point reports the metric.
        """
        scored = [
            (point.result.metrics().get(metric), point)
            for point in self.points
        ]
        scored = [(value, point) for value, point in scored if value is not None]
        if not scored:
            raise PipelineError(
                f"no sweep point reports metric {metric!r}"
            )
        return min(scored, key=lambda pair: pair[0])[1]

    def table(self, metric: str = "t_count") -> str:
        """Format the sweep as an aligned params/metric text table."""
        lines = []
        for point in self.points:
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(point.params.items())
            )
            value = point.result.metrics().get(metric)
            lines.append(f"{params:<48} {metric}={value}")
        return "\n".join(lines)


class CompilerSession:
    """Batched compilations over a shared pass cache.

    Args:
        verify: fail-fast functional verification of every pass —
            ``"auto"``/``"strict"``/``"off"``, a boolean, a
            configured :class:`~repro.verify.EquivalenceChecker`, or
            ``None`` (default) to defer to each target's ``verify``
            field.
        cache: ``"shared"`` (default), a
            :class:`~repro.pipeline.cache.PassCache`, a directory
            path for a disk-backed cache, or ``None``.
    """

    def __init__(
        self,
        verify: Union[bool, str, EquivalenceChecker, None] = None,
        cache: Union[PassCache, str, None] = "shared",
    ) -> None:
        """Resolve the session defaults and the shared cache."""
        self.verify = verify
        self.cache = _resolve_cache(cache)

    # ------------------------------------------------------------------
    def compile(
        self,
        workload: Any,
        target: Union[Target, str, None] = None,
    ) -> CompilationResult:
        """Compile one workload with the session's defaults.

        Args:
            workload: any supported workload shape.
            target: a :class:`~.target.Target` or preset name;
                ``None`` keeps the library default.

        Returns:
            The :class:`~.result.CompilationResult`.
        """
        return compile(
            workload,
            target=target,
            verify=self.verify,
            cache=self.cache,
        )

    # ------------------------------------------------------------------
    def _sweep_point(
        self, params: Dict[str, Any], base: Any
    ) -> Tuple[Any, Union[Target, None]]:
        """Translate one grid assignment into (workload, target)."""
        params = dict(params)
        target = params.pop("target", None)
        target = get_target(target)
        overrides = {
            key: params.pop(key)
            for key in tuple(params)
            if key in _TARGET_FIELDS
        }
        if overrides:
            target = target.with_(**overrides)
        family_keys = [k for k in params if k in GENERATOR_KINDS]
        if family_keys:
            spec = {k: params.pop(k) for k in family_keys}
            spec.update(
                {
                    k: params.pop(k)
                    for k in tuple(params)
                    if k in _GENERATOR_OPTION_KEYS
                }
            )
            workload = spec
        else:
            workload = base
        if params:
            raise PipelineError(
                f"unknown sweep parameter(s) {sorted(params)}; valid "
                "keys are target fields "
                f"({', '.join(_TARGET_FIELDS)}), generator families "
                f"({', '.join(GENERATOR_KINDS)}), their options "
                f"({', '.join(_GENERATOR_OPTION_KEYS)}), and 'target'"
            )
        if workload is None:
            raise PipelineError(
                "sweep point selects no workload: pass base= or "
                "include a generator family key in the grid"
            )
        return workload, target

    def sweep(
        self,
        param_grid: Dict[str, Sequence[Any]],
        base: Any = None,
    ) -> SweepResult:
        """Compile the cartesian product of a parameter grid.

        Grid keys may be generator families (``hwb``, ``adder``, ...)
        with their options (``seed``, ``const``, ``amount``) selecting
        the workload per point, any :class:`~.target.Target` field
        (``synthesis``, ``optimization_level``, ``relative_phase``,
        ``coupling``, ...) deriving a per-point target, or ``target``
        naming a preset target.  Points compile one after another in
        the calling thread, in grid order, over the shared cache, so
        sub-flows repeated across points (e.g. the same generated
        specification under two synthesis methods) replay as cache
        hits.  The first failing point's exception propagates as is.

        Args:
            param_grid: mapping of parameter name to the values to
                sweep; the product is enumerated in sorted-key order,
                so results are deterministic.
            base: workload for points that do not select one via
                generator keys.

        Returns:
            The :class:`SweepResult`, one point per grid assignment.
        """
        keys = sorted(param_grid)
        assignments = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(param_grid[k] for k in keys))
        ]
        # every point is translated (and validated) before any compiles
        tasks = [
            self._sweep_point(assignment, base)
            for assignment in assignments
        ]
        return SweepResult(
            points=[
                SweepPoint(params=assignment, result=self.compile(*task))
                for assignment, task in zip(assignments, tasks)
            ]
        )

    def cache_stats(self) -> Dict[str, int]:
        """Return the shared cache's entry/hit/miss/eviction counters."""
        if self.cache is None:
            return PassCache().stats()
        return self.cache.stats()
