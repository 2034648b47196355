"""The verdict value: what one equivalence check decided, and how.

Every check run by the tiered :class:`~.checker.EquivalenceChecker`
produces a :class:`Verdict` — the tier that ran, whether it passed,
failed or was skipped, how long it took, and (for enumerating or
randomized tiers) how many inputs it exercised.  Pass records carry
the verdict verbatim, so a verified compilation can state for every
pass *which* check vouched for it, and a skipped check is always
visible instead of masquerading as a pass (the silent-skip bug the
legacy dense helpers had).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable

#: Verdict status values.
PASSED = "passed"
FAILED = "failed"
SKIPPED = "skipped"

#: Tier names a verdict may carry, cheapest first (``cache`` marks a
#: replay of an entry verified when first computed, ``none`` a check
#: that could not run at all).
TIERS = (
    "syntactic",
    "permutation",
    "specification",
    "stabilizer",
    "swap",
    "dense",
    "probes",
    "cache",
    "none",
)


@dataclass(frozen=True)
class Verdict:
    """The outcome of one equivalence check.

    Attributes:
        status: ``"passed"``, ``"failed"`` or ``"skipped"``.
        tier: which tier ran (one of :data:`TIERS`); for a skipped
            check, the tier that *would* have been needed (``none``
            when no tier applies at all).
        detail: failure message, skip reason, or a short note on what
            the passing tier established.
        seconds: wall-clock cost of the check.
        checks: number of inputs exercised — basis inputs for the
            enumerating tiers, probe states for the randomized tier,
            0 when not meaningful.
    """

    status: str
    tier: str
    detail: str = ""
    seconds: float = 0.0
    checks: int = 0

    @property
    def passed(self) -> bool:
        """Whether the check ran and established equivalence."""
        return self.status == PASSED

    @property
    def failed(self) -> bool:
        """Whether the check ran and found a semantic difference."""
        return self.status == FAILED

    @property
    def skipped(self) -> bool:
        """Whether no applicable tier could run the check."""
        return self.status == SKIPPED

    @classmethod
    def accept(
        cls, tier: str, detail: str = "", checks: int = 0
    ) -> "Verdict":
        """Build a passing verdict.

        Args:
            tier: the tier that established equivalence.
            detail: optional note on what the tier established.
            checks: inputs exercised (basis inputs / probes).

        Returns:
            A ``passed`` :class:`Verdict`.
        """
        return cls(PASSED, tier, detail, checks=checks)

    @classmethod
    def reject(cls, tier: str, detail: str, checks: int = 0) -> "Verdict":
        """Build a failing verdict.

        Args:
            tier: the tier that found the difference.
            detail: human-readable description of the mismatch.
            checks: inputs exercised before the mismatch.

        Returns:
            A ``failed`` :class:`Verdict`.
        """
        return cls(FAILED, tier, detail, checks=checks)

    @classmethod
    def skip(cls, tier: str, reason: str) -> "Verdict":
        """Build an explicitly-skipped verdict.

        Args:
            tier: the tier that would have been needed (``none`` when
                no tier applies).
            reason: why no applicable tier could run.

        Returns:
            A ``skipped`` :class:`Verdict`.
        """
        return cls(SKIPPED, tier, reason)

    def describe(self) -> str:
        """Return a one-line human-readable summary of the verdict."""
        base = f"{self.status} (tier {self.tier}"
        if self.checks:
            base += f", {self.checks} inputs"
        base += f", {self.seconds * 1e3:.2f}ms)"
        if self.detail:
            base += f": {self.detail}"
        return base


def timed(check: Callable[..., Verdict]) -> Callable[..., Verdict]:
    """Decorate a verdict-returning check to stamp its wall-clock cost.

    The decorated call returns a copy of the check's verdict whose
    ``seconds`` field is the time the whole call took, so checks build
    their verdicts without timing each exit themselves.  When one
    timed check returns another's verdict, the outer call's time wins.
    """

    @functools.wraps(check)
    def timed_check(*args, **kwargs) -> Verdict:
        """Run the check and return its verdict with ``seconds`` set."""
        started = time.perf_counter()
        verdict = check(*args, **kwargs)
        return replace(verdict, seconds=time.perf_counter() - started)

    return timed_check
