"""The compile facade and batched compilation sessions.

:func:`compile` is the library's one front door: normalize any
workload shape (:mod:`~.frontends`), resolve a :class:`~.target.Target`
to a concrete flow, execute it on the pass manager, and hand back a
:class:`~.result.CompilationResult`.

:class:`CompilerSession` amortizes many compilations:
:meth:`~CompilerSession.sweep` expands a parameter grid into
compilation points and fans them out over a thread pool, all sharing
one :class:`~repro.pipeline.cache.PassCache` object (optionally
disk-backed via ``cache=<path>``, which also lets separate processes
share results), so repeated sub-flows replay instead of recompute.

Every sweep runs on one asyncio core.
:meth:`~CompilerSession.sweep_async` awaits it on the caller's event
loop; the synchronous :meth:`~CompilerSession.sweep` drives the same
core to completion on a private loop.  Every job is its own future,
in-flight concurrency is bounded by a semaphore, results come back in
deterministic input order, the first failing job cancels the rest and
its exception propagates unwrapped, and cancelling the outer coroutine
cancels every pending job.  Jobs already running on a pool thread when
the batch fails or is cancelled cannot be interrupted mid-pass; they
finish in the background and their results are discarded.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..engines import EngineError
from ..engines import get as get_engine
from ..pipeline.cache import PassCache, shared_cache
from ..pipeline.passes import GENERATOR_KINDS
from ..pipeline.runner import Pipeline
from ..pipeline.state import PipelineError
from ..resilience.errors import DeadlineExceeded
from ..resilience.faults import fault_point
from ..resilience.policies import Deadline, RetryPolicy, as_retry
from ..verify.checker import EquivalenceChecker
from .frontends import detect_workload
from .result import CompilationResult
from .target import Target, get_target

#: Extra seconds the hard per-job backstop grants beyond
#: ``job_timeout`` before abandoning a worker: the cooperative
#: deadline inside the job should fire first and carry the precise
#: flow position; the backstop exists for jobs wedged in
#: non-cooperative code.
_JOB_TIMEOUT_GRACE = 0.1

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
    retry: Union[RetryPolicy, int, None] = None,
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
            :class:`~repro.resilience.Deadline` or a number of
            seconds; checked cooperatively before every pass, an
            expired budget raises
            :class:`~repro.resilience.DeadlineExceeded` naming the
            flow position.
        retry: :class:`~repro.resilience.RetryPolicy` (or attempt
            count) re-running transiently failing passes; without it
            a failing pass raises.
        engine: default simulation backend for
            :meth:`~.result.CompilationResult.simulate` — any
            :mod:`repro.engines` name or alias, validated here; ``None`` defers to the target's ``engine`` field.

    Returns:
        The :class:`~.result.CompilationResult` with the final
        circuit, per-pass records and lazy emitters.

    Raises:
        WorkloadError: when the workload is not a supported shape.
        PipelineError: when ``pipeline=`` is combined with
            ``deadline``/``retry`` — the explicit runner
            carries its own resilience configuration; ignoring a
            requested deadline silently would be worse than refusing.
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
    if pipeline is not None and (deadline is not None or retry is not None):
        raise PipelineError(
            "compile(pipeline=...) conflicts with deadline=/retry=; "
            "configure them on the Pipeline instead"
        )
    if pipeline is None:
        pipeline = Pipeline(
            verify=verify,
            cache=_resolve_cache(cache),
            deadline=deadline,
            retry=retry,
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


def _run_sync(coro):
    """Run a batch coroutine to completion from synchronous code.

    Runs it like :func:`asyncio.run` on a private loop, leaving the
    calling thread's current event loop untouched; when the calling
    thread already runs an event loop (where a second one cannot
    start), the coroutine runs on a one-shot helper thread instead,
    blocking the caller just as a synchronous call must.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return _run_private(coro)
    with ThreadPoolExecutor(max_workers=1) as helper:
        return helper.submit(_run_private, coro).result()


def _run_private(coro):
    """Run a coroutine on a fresh loop, never installed as current."""
    with asyncio.Runner(loop_factory=asyncio.new_event_loop) as runner:
        return runner.run(coro)


class CompilerSession:
    """Batched compilations over a shared pass cache.

    Args:
        target: session default target (name or
            :class:`~.target.Target`); ``None`` keeps the library
            default.
        verify: fail-fast functional verification of every pass —
            ``"auto"``/``"strict"``/``"off"``, a boolean, a
            configured :class:`~repro.verify.EquivalenceChecker`, or
            ``None`` (default) to defer to each target's ``verify``
            field.
        cache: ``"shared"`` (default), a
            :class:`~repro.pipeline.cache.PassCache`, a directory
            path for a disk-backed cache, or ``None``.
        max_workers: thread-pool size, which also bounds the jobs in
            flight, for batched calls (``None``: one per job, at most
            8).
        job_timeout: per-job wall-clock budget in seconds for
            batched calls — a cooperative deadline inside each job
            plus a hard backstop that abandons a pool thread not
            returning within it; a job exceeding it raises
            :class:`~repro.resilience.DeadlineExceeded` and fails the
            batch.
        retry: per-job retry for batched calls — a
            :class:`~repro.resilience.RetryPolicy` or an attempt
            count; transiently failing jobs are re-dispatched within
            their deadline.  (Distinct from per-pass retries, which
            live on :class:`~repro.pipeline.runner.Pipeline`.)

    Raises:
        PipelineError: a ``max_workers`` that is not a positive int,
            or a ``job_timeout`` or ``retry`` that is a bool, NaN, not
            positive or (for ``retry``) not a whole attempt count.
    """

    def __init__(
        self,
        target: Union[Target, str, None] = None,
        verify: Union[bool, str, EquivalenceChecker, None] = None,
        cache: Union[PassCache, str, None] = "shared",
        max_workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retry: Union[RetryPolicy, int, None] = None,
    ) -> None:
        """Resolve the session defaults and the shared cache."""
        if max_workers is not None and (
            isinstance(max_workers, bool)
            or not isinstance(max_workers, int)
            or max_workers < 1
        ):
            raise PipelineError(
                "max_workers must be a positive int or None, not "
                f"{max_workers!r}"
            )
        if job_timeout is not None and (
            isinstance(job_timeout, bool) or not float(job_timeout) > 0
        ):
            raise PipelineError(
                "job_timeout must be a positive number of seconds or "
                f"None, not {job_timeout!r}"
            )
        try:
            self.retry = as_retry(retry)
        except ValueError as exc:
            raise PipelineError(str(exc)) from exc
        self.target = get_target(target) if target is not None else None
        self.verify = verify
        self.cache = _resolve_cache(cache)
        self.max_workers = max_workers
        self.job_timeout = (
            float(job_timeout) if job_timeout is not None else None
        )

    # ------------------------------------------------------------------
    def compile(
        self,
        workload: Any,
        target: Union[Target, str, None] = None,
    ) -> CompilationResult:
        """Compile one workload with the session's defaults.

        Args:
            workload: any supported workload shape.
            target: per-call target override.

        Returns:
            The :class:`~.result.CompilationResult`.
        """
        return compile(
            workload,
            target=target if target is not None else self.target,
            verify=self.verify,
            cache=self.cache,
        )

    def _compile_task(
        self, workload: Any, target: Union[Target, str, None]
    ) -> CompilationResult:
        """Run one batch job on a pool thread.

        The job's deadline starts here — when the job actually begins —
        and spans every retry attempt, so a retried job cannot outlive
        its ``job_timeout``.
        """
        deadline = (
            Deadline.after(self.job_timeout)
            if self.job_timeout is not None
            else None
        )

        def attempt() -> CompilationResult:
            """Run one (possibly retried) dispatch of the job."""
            fault_point("session.dispatch")
            return compile(
                workload,
                target=target,
                verify=self.verify,
                cache=self.cache,
                deadline=deadline,
            )

        if self.retry is None:
            return attempt()
        return self.retry.call(
            attempt, site="session.dispatch", deadline=deadline
        )

    async def _run_batch_async(
        self,
        tasks: List[Tuple[Any, Union[Target, str, None]]],
    ) -> List[CompilationResult]:
        """Fan (workload, target) tasks out on the event loop.

        This is the session's only batch executor:
        :meth:`sweep_async` awaits it, and :meth:`sweep` drives it
        through :func:`_run_sync`.  Each task becomes one future on
        the running loop, executed on a private thread pool whose
        threads share the session's cache object; an
        :class:`asyncio.Semaphore` bounds how many are in
        flight at once.  Results are gathered in task order
        (deterministic), the first failing job cancels the
        not-yet-started ones and re-raises its exception unwrapped,
        and an outer cancellation propagates to every pending job.
        Already-running jobs finish on their thread in the background;
        their results are discarded.  The session's ``job_timeout``
        bounds each job cooperatively inside the job and with an
        :func:`asyncio.wait_for` hard backstop around it, surfaced as
        :class:`~repro.resilience.DeadlineExceeded`.
        """
        if not tasks:
            return []
        loop = asyncio.get_running_loop()
        limit = self.max_workers or min(len(tasks), 8)
        semaphore = asyncio.Semaphore(limit)
        pool = ThreadPoolExecutor(max_workers=limit)

        async def run_one(index, task):
            """Await one job under the in-flight semaphore."""
            async with semaphore:
                future = loop.run_in_executor(pool, self._compile_task, *task)
                if self.job_timeout is None:
                    return await future
                try:
                    return await asyncio.wait_for(
                        future, timeout=self.job_timeout + _JOB_TIMEOUT_GRACE
                    )
                except asyncio.TimeoutError:
                    raise DeadlineExceeded(
                        f"session.job[{index}]: no result within the "
                        f"{self.job_timeout:g}s job timeout (worker "
                        "abandoned)",
                        site="session.job",
                    ) from None

        jobs = [
            asyncio.ensure_future(run_one(index, task))
            for index, task in enumerate(tasks)
        ]
        try:
            return await asyncio.gather(*jobs)
        except BaseException:
            # first failure (or outer cancellation): cancel every job
            # not yet handed to the pool and reap the wrappers.
            # Jobs already running on a thread cannot be interrupted —
            # they finish in the background and their results are
            # discarded (at most `limit` of them).
            for job in jobs:
                job.cancel()
            await asyncio.gather(*jobs, return_exceptions=True)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _sweep_point(
        self, params: Dict[str, Any], base: Any
    ) -> Tuple[Any, Union[Target, None]]:
        """Translate one grid assignment into (workload, target)."""
        params = dict(params)
        target = params.pop("target", None)
        target = get_target(target if target is not None else self.target)
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
        naming a preset target.  Points run over the session pool
        with the shared cache, so sub-flows repeated across points
        (e.g. the same generated specification under two synthesis
        methods) replay as cache hits.

        Args:
            param_grid: mapping of parameter name to the values to
                sweep; the product is enumerated in sorted-key order,
                so results are deterministic.
            base: workload for points that do not select one via
                generator keys.

        Returns:
            The :class:`SweepResult`, one point per grid assignment.
        """
        return _run_sync(self.sweep_async(param_grid, base))

    async def sweep_async(
        self,
        param_grid: Dict[str, Sequence[Any]],
        base: Any = None,
    ) -> SweepResult:
        """Sweep a parameter grid on the asyncio event loop.

        Same grid semantics and deterministic point order as
        :meth:`sweep`, awaitable: independent points overlap (each
        job is its own future on the running loop) while a semaphore
        caps how many are in flight (the session's ``max_workers``,
        else ``min(len, 8)``).  The first failing job cancels the
        rest and its exception propagates unwrapped; cancelling the
        returned coroutine cancels every pending job.

        Args:
            param_grid: mapping of parameter name to values to sweep.
            base: workload for points not selecting one via generator
                keys.

        Returns:
            The :class:`SweepResult`, one point per grid assignment.
        """
        keys = sorted(param_grid)
        assignments = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(param_grid[k] for k in keys))
        ]
        tasks = [
            self._sweep_point(assignment, base)
            for assignment in assignments
        ]
        results = await self._run_batch_async(tasks)
        return SweepResult(
            points=[
                SweepPoint(params=assignment, result=result)
                for assignment, result in zip(assignments, results)
            ]
        )

    def cache_stats(self) -> Dict[str, int]:
        """Return the shared cache's entry/hit/miss/eviction counters."""
        if self.cache is None:
            return PassCache().stats()
        return self.cache.stats()
