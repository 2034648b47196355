"""Fault injection: named sites, activatable plans, chaos testing.

A serving system's degraded paths are only as real as the tests that
exercise them.  This module plants *named injection points* along the
stack's I/O and concurrency edges; a :class:`FaultPlan` activates
faults at those sites — raise an error, delay, hang, or tear a write —
with per-spec trigger counts and a seed, so every chaos scenario is
deterministic and every exercised site is accounted for in
:meth:`FaultPlan.report`.

With no plan installed every :func:`fault_point` is a single ``None``
check — the production hot path pays one pointer comparison.

Plans activate per test (``with plan.active(): ...``) or process-wide
via the ``REPRO_FAULTS`` environment variable, e.g.::

    REPRO_FAULTS='cache.spill.write:raise:2;pipeline.pass.run.*:delay:1:0.2'

Each ``;``-separated segment is ``site:action[:times[:seconds[:error]]]``
(``times`` may be ``*`` for every hit); a ``seed=N`` segment seeds the
plan.  The environment form reaches child processes too, since they
inherit the variable.

Registered sites (patterns match with :mod:`fnmatch`):

=============================  =======================================
``cache.spill.write``          disk-tier entry write (spill)
``cache.load.read``            disk-tier entry read
``cache.store``                memory-tier insert
``cache.gc.scan``              gc directory scan
``cache.gc.unlink``            gc entry eviction
``pipeline.apply.claim``       single-flight key claim
``pipeline.apply.wait``        single-flight follower wait
``pipeline.pass.run.<name>``   pass execution (per pass name)
``session.dispatch``           session worker job dispatch
=============================  =======================================
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Every injection site planted in the stack (``<name>`` expands per
#: pass); :class:`FaultSpec` patterns are matched against these.
KNOWN_SITES: Tuple[str, ...] = (
    "cache.spill.write",
    "cache.load.read",
    "cache.store",
    "cache.gc.scan",
    "cache.gc.unlink",
    "pipeline.apply.claim",
    "pipeline.apply.wait",
    "pipeline.pass.run.<name>",
    "session.dispatch",
)

#: Actions a :class:`FaultSpec` may take at its site.
ACTIONS: Tuple[str, ...] = ("raise", "delay", "hang", "torn")

#: How long a ``hang`` action blocks at most (a *bounded* hang: long
#: enough to trip any reasonable deadline or follower timeout, short
#: enough that a leaked plan cannot wedge a test session forever).
HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """A generic injected failure (marked transient for retry tests)."""

    transient = True


class InjectedOSError(OSError):
    """An injected disk error, caught wherever real ``OSError`` is."""


class InjectedTimeout(TimeoutError):
    """An injected timeout (transient: every ``TimeoutError`` is)."""


_ERRORS = {
    "oserror": InjectedOSError,
    "fault": InjectedFault,
    "timeout": InjectedTimeout,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where, what, how often.

    Attributes:
        site: exact site name or :mod:`fnmatch` pattern
            (``pipeline.pass.run.*``).
        action: ``raise`` (throw ``error``), ``delay`` (sleep
            ``seconds``), ``hang`` (block until released, at most
            :data:`HANG_SECONDS`), or ``torn`` (truncate the payload
            at a torn-write site).
        times: how many matching hits trigger before the spec goes
            dormant; ``None`` triggers on every hit.
        skip: let the first ``skip`` matching hits through untouched
            (fail the *second* write, not the first).
        seconds: sleep length for ``delay``; cap override for
            ``hang``.
        error: which exception ``raise`` throws — ``oserror``
            (default), ``fault``, or ``timeout``.
    """

    site: str
    action: str = "raise"
    times: Optional[int] = 1
    skip: int = 0
    seconds: float = 0.05
    error: str = "oserror"

    def __post_init__(self) -> None:
        """Validate the action and error names."""
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; one of "
                f"{', '.join(ACTIONS)}"
            )
        if self.error not in _ERRORS:
            raise ValueError(
                f"unknown fault error {self.error!r}; one of "
                f"{', '.join(_ERRORS)}"
            )

    def matches(self, site: str) -> bool:
        """Return whether this spec applies to ``site``.

        Args:
            site: the concrete site name being visited.
        """
        return site == self.site or fnmatch.fnmatchcase(site, self.site)


class FaultPlan:
    """A named set of faults, activatable as the process's plan.

    Thread-safe: hit counters and trigger bookkeeping take an internal
    lock, so chaos tests may hammer sites from many threads.

    Args:
        specs: the :class:`FaultSpec` entries (or plain dicts with the
            same fields).
        seed: seeds deterministic choices (torn-write truncation
            points); recorded in :meth:`report`.
        name: label for reports (defaults to ``plan``).
    """

    def __init__(
        self,
        specs: Any = (),
        seed: int = 0,
        name: str = "plan",
    ) -> None:
        """Normalize the specs and reset all counters."""
        self.specs: List[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        ]
        self.seed = int(seed)
        self.name = name
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._spec_hits: Dict[int, int] = {}
        self._triggered: Dict[int, int] = {}
        self._outcomes: Dict[str, Dict[str, int]] = {}
        self._release = threading.Event()

    # ------------------------------------------------------------------
    def _visit(self, site: str) -> Optional[Tuple[FaultSpec, int]]:
        """Record a site hit; return the triggering (spec, hit#) if any."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for index, spec in enumerate(self.specs):
                if not spec.matches(site):
                    continue
                seen = self._spec_hits.get(index, 0)
                self._spec_hits[index] = seen + 1
                if seen < spec.skip:
                    continue
                fired = self._triggered.get(index, 0)
                if spec.times is not None and fired >= spec.times:
                    continue
                self._triggered[index] = fired + 1
                outcome = self._outcomes.setdefault(site, {})
                outcome[spec.action] = outcome.get(spec.action, 0) + 1
                return spec, hit
        return None

    def fire(self, site: str) -> None:
        """Visit ``site`` and execute any matching fault action.

        Args:
            site: the concrete site name.

        Raises:
            InjectedOSError: (or the spec's chosen error) on a
                ``raise`` action.
        """
        triggered = self._visit(site)
        if triggered is None:
            return
        spec, _hit = triggered
        if spec.action == "raise":
            raise _ERRORS[spec.error](f"injected fault at {site}")
        if spec.action == "delay":
            self._release.wait(spec.seconds)
        elif spec.action == "hang":
            self._release.wait(min(spec.seconds or HANG_SECONDS,
                                   HANG_SECONDS))
        # "torn" only acts at payload sites via mutate()

    def mutate(self, site: str, payload: str) -> str:
        """Apply a ``torn`` fault to a payload about to be written.

        Args:
            site: the torn-write-capable site name.
            payload: the full serialized payload.

        Returns:
            The payload, truncated at a seed-deterministic point when
            a ``torn`` spec triggers, unchanged otherwise.
        """
        triggered = self._visit(site)
        if triggered is None:
            return payload
        spec, hit = triggered
        if spec.action == "raise":
            raise _ERRORS[spec.error](f"injected fault at {site}")
        if spec.action != "torn" or len(payload) < 2:
            return payload
        digest = hashlib.sha256(
            f"{self.seed}:{site}:{hit}".encode()
        ).digest()
        cut = 1 + int.from_bytes(digest[:4], "big") % (len(payload) - 1)
        return payload[:cut]

    def release(self) -> None:
        """Unblock every pending ``delay``/``hang`` immediately."""
        self._release.set()

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Return the exercised-sites × outcomes accounting.

        Returns:
            A dict with the plan ``name``, ``seed``, per-site ``hits``
            and triggered ``outcomes`` (action → count), and the
            per-spec trigger totals.
        """
        with self._lock:
            return {
                "name": self.name,
                "seed": self.seed,
                "sites": dict(sorted(self._hits.items())),
                "outcomes": {
                    site: dict(actions)
                    for site, actions in sorted(self._outcomes.items())
                },
                "specs": [
                    {
                        "site": spec.site,
                        "action": spec.action,
                        "times": spec.times,
                        "triggered": self._triggered.get(index, 0),
                    }
                    for index, spec in enumerate(self.specs)
                ],
            }

    def active(self) -> "_PlanActivation":
        """Return a context manager installing this plan.

        Returns:
            A context manager; on exit the previous plan is restored
            and any pending hangs are released.
        """
        return _PlanActivation(self)


class _PlanActivation:
    """Context manager installing/uninstalling one plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self.previous = install(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        self.plan.release()
        install(self.previous)


# ----------------------------------------------------------------------
# the process-wide active plan
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None
_ENV_LOADED = False


def plan_from_env(variable: str = "REPRO_FAULTS") -> Optional[FaultPlan]:
    """Parse a :class:`FaultPlan` from an environment variable.

    Args:
        variable: the variable to read (``REPRO_FAULTS``).

    Returns:
        The parsed plan, or ``None`` when the variable is unset or
        empty.

    Raises:
        ValueError: when a segment is malformed (the message shows the
            expected ``site:action[:times[:seconds[:error]]]`` shape).
    """
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return None
    specs: List[FaultSpec] = []
    seed = 0
    for segment in raw.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment.startswith("seed="):
            seed = int(segment[len("seed="):])
            continue
        parts = segment.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"malformed {variable} segment {segment!r}; expected "
                "site:action[:times[:seconds[:error]]]"
            )
        fields: Dict[str, Any] = {"site": parts[0], "action": parts[1]}
        if len(parts) > 2 and parts[2]:
            fields["times"] = None if parts[2] == "*" else int(parts[2])
        if len(parts) > 3 and parts[3]:
            fields["seconds"] = float(parts[3])
        if len(parts) > 4 and parts[4]:
            fields["error"] = parts[4]
        specs.append(FaultSpec(**fields))
    return FaultPlan(specs, seed=seed, name=f"env:{variable}")


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process's active plan.

    Args:
        plan: the plan to activate, or ``None`` to deactivate.

    Returns:
        The previously active plan (so callers can restore it).
    """
    global _PLAN, _ENV_LOADED
    with _LOCK:
        previous = _PLAN
        _PLAN = plan
        _ENV_LOADED = True  # an explicit install overrides the env
    return previous


def active_plan() -> Optional[FaultPlan]:
    """Return the active plan, loading ``REPRO_FAULTS`` on first use."""
    global _PLAN, _ENV_LOADED
    if not _ENV_LOADED:
        with _LOCK:
            if not _ENV_LOADED:
                _PLAN = plan_from_env()
                _ENV_LOADED = True
    return _PLAN


def fault_point(site: str) -> None:
    """Visit an injection site (no-op without an active plan).

    Args:
        site: the site's registered name.

    Raises:
        InjectedOSError: (or another injected error) when the active
            plan has a triggering ``raise`` spec for this site.
    """
    plan = active_plan()
    if plan is not None:
        plan.fire(site)


def mutate_payload(site: str, payload: str) -> str:
    """Pass a payload through the active plan's torn-write faults.

    Args:
        site: the torn-write-capable site name.
        payload: the serialized payload about to be written.

    Returns:
        The (possibly truncated) payload.
    """
    plan = active_plan()
    if plan is None:
        return payload
    return plan.mutate(site, payload)
