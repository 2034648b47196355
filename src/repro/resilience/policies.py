"""Deadlines — the resilience layer's budget vocabulary.

:class:`Deadline` is a monotonic wall-clock budget, checked at
cooperative checkpoints (:meth:`Deadline.check`).  It is an immutable
value: sharing one deadline across threads or layers is safe by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from .errors import DeadlineExceeded


@dataclass(frozen=True)
class Deadline:
    """A monotonic compute budget, checked cooperatively.

    Create one with :meth:`after`; pass it down through
    ``repro.compile(deadline=...)`` / ``Pipeline(deadline=...)``.
    Checkpoints call :meth:`check` — nothing is interrupted
    preemptively, so a deadline can only fire between cooperative
    steps.

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
        """Raise :class:`~.errors.DeadlineExceeded` once expired.

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
    value: Union["Deadline", float, int, None]
) -> Optional[Deadline]:
    """Coerce a deadline argument: seconds, a Deadline, or ``None``.

    Args:
        value: ``None`` (no deadline), a number of seconds from now,
            or an existing :class:`Deadline` (shared across layers so
            nested budgets do not stack).

    Returns:
        The resolved :class:`Deadline` or ``None``.
    """
    if value is None or isinstance(value, Deadline):
        return value
    return Deadline.after(value)
