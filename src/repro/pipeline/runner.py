"""The pipeline runner: timed, cached, verified pass execution.

:class:`Pipeline` executes :class:`~.passes.Pass` objects over a
:class:`~.state.FlowState`, producing one :class:`PassRecord` per pass
with wall-clock timing, gate-count/T-count deltas and pass-specific
details.  Behind flags it also

* replays results from a content-keyed :class:`~.cache.PassCache`
  (skipping recomputation on repeated flows), and
* fail-fast verifies every pass functionally (permutation / unitary
  checks, Sec. IX), raising :class:`VerificationError` at the first
  pass that breaks the flow's semantics.

A :class:`Deadline` bounds a flow: it is checked before every pass
(never mid-pass) and an expired one raises :class:`DeadlineExceeded`
naming the flow position.  A failing pass raises with that position
too; passes are deterministic, so nothing re-runs one.

The RevKit shell, the Q#/ProjectQ framework flows and the paper-flow
benchmarks all execute through this runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..verify.checker import EquivalenceChecker, as_checker
from ..verify.verdict import Verdict
from .cache import PassCache, shared_cache
from .passes import Pass
from .state import FlowState, PipelineError, state_key


class VerificationError(PipelineError):
    """Raised when a pass breaks the flow's functional semantics."""


class DeadlineExceeded(PipelineError):
    """Raised when a cooperative :class:`Deadline` expires.

    Deadlines are checked before every pass, so the error surfaces at
    the next checkpoint after the budget runs out — never mid-pass.
    The message starts with the checkpoint name
    (``pipeline.apply(tbs)``), so it survives the pipeline's
    re-raise-with-context wrapping, which rebuilds exceptions from
    their message alone.

    Args:
        message: human-readable description.
        site: optional machine-readable checkpoint name;
            informational — the message is the durable carrier.
    """

    def __init__(self, message: str, site: Optional[str] = None) -> None:
        """Store the message and remember the checkpoint."""
        super().__init__(message)
        self.site = site


@dataclass(frozen=True)
class Deadline:
    """A monotonic compute budget, checked cooperatively.

    Create one with :meth:`after`; pass it down through
    ``repro.compile(deadline=...)`` / ``Pipeline(deadline=...)``.
    Checkpoints call :meth:`check` — nothing is interrupted
    preemptively, so a deadline can only fire between passes.  It is
    an immutable value, so sharing one across threads or layers is
    safe.

    Attributes:
        expires_at: absolute :func:`time.monotonic` expiry instant.
        budget: the original budget in seconds (for error messages).
    """

    expires_at: float
    budget: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Return a deadline expiring ``seconds`` from now.

        Args:
            seconds: the budget; a positive number (not a bool, not
                NaN).

        Returns:
            The new :class:`Deadline`.

        Raises:
            ValueError: ``seconds`` is a bool, NaN or not positive.
        """
        if isinstance(seconds, bool) or not float(seconds) > 0:
            raise ValueError(
                "deadline budget must be a positive number of seconds, "
                f"not {seconds!r}"
            )
        seconds = float(seconds)
        return cls(expires_at=time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Return the seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Return whether the budget has run out."""
        return self.remaining() <= 0.0

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` once expired.

        Args:
            site: checkpoint name baked into the error message
                (``pipeline.apply(tbs)``, ...).
        """
        if self.expired():
            where = site or "deadline"
            raise DeadlineExceeded(
                f"{where}: deadline of {self.budget:g}s exceeded "
                f"(over by {-self.remaining():.3f}s)",
                site=site or None,
            )


def as_deadline(
    value: Union[Deadline, float, int, None]
) -> Optional[Deadline]:
    """Coerce a deadline argument: seconds, a Deadline, or ``None``.

    Args:
        value: ``None`` (no deadline), a number of seconds from now,
            or an existing :class:`Deadline` (shared across layers so
            nested budgets do not stack).

    Returns:
        The resolved :class:`Deadline` or ``None``.

    Raises:
        ValueError: a number that :meth:`Deadline.after` refuses.
    """
    if value is None or isinstance(value, Deadline):
        return value
    return Deadline.after(value)


def _flow_context(
    flow_name: Optional[str], index: int, total: int, pass_: "Pass"
) -> str:
    """Name the failing step: flow, 1-based pass index, name, stage."""
    where = f"pass {index + 1}/{total} ({pass_.name!r}, stage {pass_.stage!r})"
    if flow_name:
        return f"flow {flow_name!r} {where}"
    return where


def state_metrics(state: FlowState) -> Dict[str, Any]:
    """Summarize the cost figures of a flow store.

    Args:
        state: the store to measure.

    Returns:
        A dict with (present-field dependent) keys ``mct_gates``,
        ``lines``, ``quantum_cost``, ``gates``, ``qubits`` and
        ``t_count``.
    """
    metrics: Dict[str, Any] = {}
    if state.reversible is not None:
        metrics["mct_gates"] = len(state.reversible)
        metrics["lines"] = state.reversible.num_lines
        metrics["quantum_cost"] = state.reversible.quantum_cost()
    if state.quantum is not None:
        metrics["gates"] = len(state.quantum)
        metrics["qubits"] = state.quantum.num_qubits
        metrics["t_count"] = state.quantum.t_count()
    return metrics


@dataclass
class PassRecord:
    """What one pass execution did.

    Attributes:
        name: the pass's command-style name.
        stage: the pass's flow phase.
        seconds: wall-clock time of the pass's ``run`` (replay time
            on a cache hit); verification and statistics hooks are
            not included.
        cache_hit: whether the result was replayed from the cache.
        before: :func:`state_metrics` of the incoming store.
        after: :func:`state_metrics` of the outgoing store.
        details: pass-specific statistics (swap counts, ...).
        verification: the :class:`~repro.verify.Verdict` of the
            pass's functional check — which tier ran, its cost and
            outcome — or ``None`` when the pipeline ran unverified.
            A skipped check is recorded explicitly, never silently.
    """

    name: str
    stage: str
    seconds: float
    cache_hit: bool
    before: Dict[str, Any] = field(default_factory=dict)
    after: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    verification: Optional[Verdict] = None

    def summary(self) -> str:
        """Return a one-line human-readable delta summary."""
        parts: List[str] = []
        for metric, label in (
            ("mct_gates", "MCT"),
            ("gates", "gates"),
            ("t_count", "T"),
        ):
            before, after = self.before.get(metric), self.after.get(metric)
            if after is None:
                continue
            if before is None or before == after:
                parts.append(f"{label}={after}")
            else:
                parts.append(f"{label} {before}->{after}")
        for key, value in self.details.items():
            if isinstance(value, (int, bool, str)):
                parts.append(f"{key}={value}")
        if self.verification is not None:
            parts.append(
                f"verify={self.verification.status}"
                f":{self.verification.tier}"
            )
        return "  ".join(parts)


class RecordedRun:
    """Accessors over a run's final ``state`` and its per-pass ``records``.

    The base of :class:`PipelineResult` and of
    :class:`~repro.compiler.result.CompilationResult`, which both
    declare those two fields.
    """

    state: FlowState
    records: List[PassRecord]

    @property
    def reversible(self):
        """Return the final reversible cascade (or ``None``)."""
        return self.state.reversible

    @property
    def routing(self):
        """Return the final routing result (or ``None``)."""
        return self.state.routing

    @property
    def total_seconds(self) -> float:
        """Return the summed wall-clock time of all passes."""
        return sum(record.seconds for record in self.records)

    @property
    def verified(self) -> bool:
        """Whether every pass carries a *passed* verification verdict.

        ``False`` for unverified runs and whenever any pass's check
        was skipped — a skip is never promoted to a pass.
        """
        return bool(self.records) and all(
            record.verification is not None and record.verification.passed
            for record in self.records
        )

    def record(self, name: str) -> PassRecord:
        """Return the first record of the pass called ``name``.

        Args:
            name: the pass name to look up.

        Returns:
            The matching :class:`PassRecord`.

        Raises:
            KeyError: if no pass of that name ran.
        """
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    def report(self) -> str:
        """Format the records as an aligned per-pass table."""
        return format_records(self.records)


@dataclass
class PipelineResult(RecordedRun):
    """Final store plus the per-pass records of one flow execution."""

    state: FlowState
    records: List[PassRecord] = field(default_factory=list)

    @property
    def quantum(self):
        """Return the final quantum circuit (or ``None``)."""
        return self.state.quantum


def format_records(records: Iterable[PassRecord]) -> str:
    """Format pass records as an aligned text table.

    Args:
        records: the records to render.

    Returns:
        One line per pass: name, stage, time, cache marker, deltas.
    """
    rows = list(records)
    if not rows:
        return "(no passes executed)"
    name_w = max(len(r.name) for r in rows)
    stage_w = max(len(r.stage) for r in rows)
    lines = []
    for r in rows:
        marker = "cached" if r.cache_hit else f"{r.seconds * 1e3:8.2f}ms"
        lines.append(
            f"{r.name:<{name_w}}  {r.stage:<{stage_w}}  "
            f"{marker:>10}  {r.summary()}"
        )
    return "\n".join(lines)


class Pipeline:
    """Execute passes with timing, caching and optional verification.

    A failing pass raises; passes are deterministic, so nothing here
    re-runs one.

    Args:
        verify: functionally verify every pass (fail-fast — the first
            failing pass raises :class:`VerificationError`).  Accepts
            ``True``/``"auto"`` (tiered checking, skips recorded
            explicitly), ``"strict"`` (a skipped check also raises),
            ``False``/``"off"``/``None``, or a configured
            :class:`~repro.verify.EquivalenceChecker`.  Each pass
            record carries the :class:`~repro.verify.Verdict` naming
            the tier that ran.
        cache: a :class:`~.cache.PassCache`, the string ``"shared"``
            for the process-wide cache (default), or ``None`` to
            disable result caching.
        deadline: compute budget for every :meth:`run`/:meth:`apply`
            — a :class:`Deadline`, or seconds that start counting
            here, at construction; checked before every pass, raising
            :class:`DeadlineExceeded`.
    """

    def __init__(
        self,
        verify: Union[bool, str, EquivalenceChecker, None] = False,
        cache: Union[PassCache, str, None] = "shared",
        deadline: Union[Deadline, float, None] = None,
    ) -> None:
        """Configure verification, caching and the deadline."""
        self.checker = as_checker(verify)
        self.verify = self.checker is not None
        if cache == "shared":
            self.cache: Optional[PassCache] = shared_cache()
        else:
            self.cache = cache
        self.deadline = as_deadline(deadline)
        self.history: List[PassRecord] = []

    # ------------------------------------------------------------------
    def apply(
        self,
        pass_: Pass,
        state: FlowState,
    ) -> Tuple[FlowState, PassRecord]:
        """Run one pass on ``state`` and record what happened.

        The deadline is checked first; then a cache hit replays the
        stored outputs and a miss runs the pass (and stores it).

        Args:
            pass_: the pass to execute.
            state: the incoming store (never mutated).

        Returns:
            ``(new_state, record)``; the record is also appended to
            :attr:`history`.

        Raises:
            VerificationError: when ``verify`` is on and the pass
                broke the flow's semantics; nothing is cached or
                recorded in that case, and a broken cached entry is
                dropped.  Verified entries are flagged in the cache,
                so replaying them skips re-verification.
            DeadlineExceeded: the budget ran out at a cooperative
                checkpoint.
        """
        deadline = self.deadline
        if deadline is not None:
            deadline.check(site=f"pipeline.apply({pass_.name})")
        cacheable = (
            self.cache is not None and bool(pass_.writes) and pass_.cacheable
        )
        key = ""
        started = time.perf_counter()
        if cacheable:
            key = self._cache_key(pass_, state)
            cached = self.cache.get(key)
            if cached is not None:
                return self._finish(
                    self._replay(pass_, state, key, cached, started)
                )
        return self._finish(self._execute(pass_, state, key, cacheable))

    def _finish(
        self, outcome: Tuple[FlowState, PassRecord]
    ) -> Tuple[FlowState, PassRecord]:
        """Append the record to :attr:`history` and pass through."""
        self.history.append(outcome[1])
        return outcome

    def _replay(
        self,
        pass_: Pass,
        state: FlowState,
        key: str,
        cached: Tuple[Dict[str, Any], Dict[str, Any], bool],
        started: float,
    ) -> Tuple[FlowState, PassRecord]:
        """Overlay a cached entry onto ``state`` and record the hit."""
        outputs, details, verified = cached
        result = self._apply_outputs(state, outputs)
        seconds = time.perf_counter() - started
        verdict: Optional[Verdict] = None
        if self.verify:
            if verified:
                verdict = Verdict.accept(
                    "cache", detail="verified when first computed"
                )
            else:
                verdict = self._check(pass_, state, result, key=key)
        record = PassRecord(
            name=pass_.name,
            stage=pass_.stage,
            seconds=seconds,
            cache_hit=True,
            before=state_metrics(state),
            after=state_metrics(result),
            details=details,
            verification=verdict,
        )
        return result, record

    def _run_pass(self, pass_: Pass, state: FlowState) -> FlowState:
        """Run one pass and freeze every field it wrote.

        This is the one place pass outputs become read-only values.  A
        verifying pipeline runs the pass certified and leaves that
        run's certificate on the output for :meth:`_check`.
        """
        if self.verify:
            result, certificate = pass_.run_certified(state)
            result.certificate = certificate
        else:
            result = pass_.run(state)
        for name in pass_.writes:
            out = getattr(result, name)
            for value in out.values() if name == "artifacts" else (out,):
                if hasattr(value, "freeze"):
                    value.freeze()
        return result

    def _execute(
        self,
        pass_: Pass,
        state: FlowState,
        key: str,
        cacheable: bool,
    ) -> Tuple[FlowState, PassRecord]:
        """Actually run the pass, verify, cache, and record it."""
        run_started = time.perf_counter()
        result = self._run_pass(pass_, state)
        seconds = time.perf_counter() - run_started
        details = pass_.statistics(state, result)
        verdict: Optional[Verdict] = None
        if self.verify:
            # verify BEFORE caching: a broken result must never be
            # stored, or later verify=False runs would replay it
            verdict = self._check(pass_, state, result)
        record = PassRecord(
            name=pass_.name,
            stage=pass_.stage,
            seconds=seconds,
            cache_hit=False,
            before=state_metrics(state),
            after=state_metrics(result),
            details=details,
            verification=verdict,
        )
        if cacheable:
            # the verified flag is only set for a *passed* check — a
            # skipped one must stay re-checkable, never a silent pass
            self.cache.put(
                key,
                self._collect_outputs(pass_, state, result),
                details,
                verified=verdict is not None and verdict.passed,
            )
        return result, record

    def _check(
        self,
        pass_: Pass,
        state: FlowState,
        result: FlowState,
        key: Optional[str] = None,
    ) -> Verdict:
        """Run the tiered check and enforce the pipeline's mode.

        Args:
            pass_: the pass whose result is being checked.
            state: store content entering the pass.
            result: store content the pass produced.
            key: cache key of a replayed entry — a broken entry is
                dropped before raising, a passed one is flagged
                verified so later replays skip the re-check.

        Returns:
            The pass's :class:`~repro.verify.Verdict`.

        Raises:
            VerificationError: the check rejected, or it was skipped
                while the checker runs in strict mode.
        """
        try:
            verdict = pass_.check(self.checker, state, result)
        finally:
            # the certificate speaks to this check only: no record,
            # cache entry or later pass sees it
            result.certificate = None
        if verdict.failed:
            if key is not None:
                # never replay a broken entry again
                self.cache.drop(key)
            raise VerificationError(
                f"pass {pass_.name!r} failed verification "
                f"(tier {verdict.tier}): {verdict.detail}"
            )
        if verdict.skipped and self.checker.strict:
            raise VerificationError(
                f"pass {pass_.name!r} could not be verified under "
                f"strict mode (tier {verdict.tier}): {verdict.detail}"
            )
        if key is not None and verdict.passed:
            self.cache.mark_verified(key)
        return verdict

    def run(
        self,
        passes: Union[Iterable[Pass], Any],
        state: Optional[FlowState] = None,
        flow_name: Optional[str] = None,
    ) -> PipelineResult:
        """Execute a sequence of passes (or a flow) end to end.

        A pass that raises mid-flow is re-raised with its position:
        :class:`~.state.PipelineError` subclasses get the flow name
        and ``pass i/n`` prefixed to their message, other exceptions
        keep their type and message and gain a traceback note.  The
        pipeline's deadline is checked before every pass (a
        cooperative checkpoint), so an expired budget surfaces as a
        :class:`DeadlineExceeded` naming the flow position instead of
        a runaway flow.

        Args:
            passes: an iterable of passes, or any object with a
                ``passes`` attribute (a
                :class:`~repro.compiler.target.Flow`).
            state: the initial store; a fresh empty one by default.
            flow_name: name used in error context; inferred from
                ``passes.name`` when a flow object is given.

        Returns:
            A :class:`PipelineResult` with the final store and the
            records of exactly this execution.
        """
        if hasattr(passes, "passes"):
            if flow_name is None:
                flow_name = getattr(passes, "name", None)
            passes = passes.passes
        sequence = list(passes)
        current = state if state is not None else FlowState()
        records: List[PassRecord] = []
        for index, pass_ in enumerate(sequence):
            try:
                current, record = self.apply(pass_, current)
            except PipelineError as exc:
                where = _flow_context(flow_name, index, len(sequence), pass_)
                try:
                    wrapped = type(exc)(f"{where}: {exc}")
                except TypeError:
                    # a subclass with a non-message constructor: keep
                    # the exception intact, carry context as a note
                    exc.add_note(f"while running {where}")
                    raise
                if isinstance(exc, DeadlineExceeded):
                    wrapped.site = exc.site
                raise wrapped from exc
            except Exception as exc:
                where = _flow_context(flow_name, index, len(sequence), pass_)
                exc.add_note(f"while running {where}")
                raise
            records.append(record)
        return PipelineResult(state=current, records=records)

    def report(self) -> str:
        """Format every pass this pipeline ever ran as a table."""
        return format_records(self.history)

    # ------------------------------------------------------------------
    def _cache_key(self, pass_: Pass, state: FlowState) -> str:
        """Build the content key for ``pass_`` applied to ``state``."""
        signature = repr((pass_.name, type(pass_).__name__, pass_.signature()))
        return signature + "/" + state_key(state, pass_.reads)

    @staticmethod
    def _collect_outputs(
        pass_: Pass, before: FlowState, after: FlowState
    ) -> Dict[str, Any]:
        """Extract the written fields of ``after`` for caching.

        The artifacts dict is stored as a diff (keys added or rebound
        by the pass) so a replay cannot resurrect unrelated entries.
        """
        outputs: Dict[str, Any] = {}
        for name in pass_.writes:
            if name == "artifacts":
                outputs["artifacts"] = {
                    k: v
                    for k, v in after.artifacts.items()
                    if before.artifacts.get(k) is not v
                }
            else:
                outputs[name] = getattr(after, name)
        return outputs

    @staticmethod
    def _apply_outputs(
        state: FlowState, outputs: Dict[str, Any]
    ) -> FlowState:
        """Overlay cached (frozen, shared) outputs onto a copy of ``state``."""
        result = state.copy()
        for name, value in outputs.items():
            if name == "artifacts":
                result.artifacts.update(value)
            else:
                setattr(result, name, value)
        return result
