"""Deadlines and retry policies — the resilience layer's vocabulary.

Two plain dataclasses every execution layer threads through:

* :class:`Deadline` — a monotonic wall-clock budget, checked at
  cooperative checkpoints (:meth:`Deadline.check`) and used to bound
  waits (:meth:`Deadline.remaining`);
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (seeded, so two runs with the same policy
  sleep identically — reproducibility is a feature of this codebase,
  and its chaos tests depend on it); only transient errors are
  retried.

Both are immutable values: sharing one policy across threads or jobs
is safe by construction.
"""

from __future__ import annotations

import hashlib
import numbers
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from .errors import DeadlineExceeded, RetriesExhausted


@dataclass(frozen=True)
class Deadline:
    """A monotonic compute budget, checked cooperatively.

    Create one with :meth:`after`; pass it down through
    ``repro.compile(deadline=...)`` / ``Pipeline(deadline=...)``.
    Checkpoints call :meth:`check`, waits bound themselves by
    :meth:`remaining` — nothing is interrupted preemptively, so a
    deadline can only fire between cooperative steps.

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
                (``pipeline.run``, ``session.job[2]``, ...).
        """
        if self.expired():
            where = site or "deadline"
            raise DeadlineExceeded(
                f"{where}: deadline of {self.budget:g}s exceeded "
                f"(over by {-self.remaining():.3f}s)",
                site=site or None,
            )

    def bound(self, timeout: Optional[float]) -> Optional[float]:
        """Clamp a wait ``timeout`` so it cannot outlive the deadline.

        Args:
            timeout: the wait's own timeout; ``None`` means unbounded.

        Returns:
            ``min(timeout, remaining)`` floored at zero.
        """
        remaining = max(self.remaining(), 0.0)
        if timeout is None:
            return remaining
        return min(timeout, remaining)


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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + deterministic jitter.

    Attributes:
        max_attempts: total attempts including the first (1 disables
            retrying while keeping the error shaping); an int.
        base_delay: sleep before the first retry, in seconds.
        multiplier: backoff growth factor per further retry.
        max_delay: cap on any single sleep.
        jitter: fraction of each delay replaced by deterministic
            noise (0 disables; 0.25 means the sleep varies ±25%).
        seed: seeds the jitter; two policies with equal fields sleep
            identically, attempt for attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the attempt and delay parameters."""
        attempts = self.max_attempts
        if (
            isinstance(attempts, bool)
            or not isinstance(attempts, numbers.Integral)
            or attempts < 1
        ):
            raise ValueError(
                f"max_attempts must be an int >= 1, not {attempts!r}"
            )
        if not (self.base_delay >= 0 and self.max_delay >= 0):
            raise ValueError(
                "delays must be non-negative numbers, not "
                f"base_delay={self.base_delay!r}, "
                f"max_delay={self.max_delay!r}"
            )

    @staticmethod
    def is_transient(error: BaseException) -> bool:
        """Return whether ``error`` is worth retrying.

        Transient: OS-level I/O errors, timeouts, connection resets,
        and any exception whose class sets a truthy ``transient``
        attribute (the fault injector's marker).  Everything else —
        type errors, broken flows, verification failures — is
        deterministic, and retrying it only wastes the budget.

        Args:
            error: the exception an attempt raised.
        """
        if getattr(error, "transient", False):
            return True
        return isinstance(error, (OSError, TimeoutError, ConnectionError))

    def backoff(self, attempt: int) -> float:
        """Return the deterministic sleep before retry ``attempt``.

        Args:
            attempt: zero-based index of the retry about to happen.

        Returns:
            ``base_delay * multiplier**attempt`` capped at
            ``max_delay``, with seeded jitter applied.
        """
        delay = min(
            self.base_delay * (self.multiplier ** attempt), self.max_delay
        )
        if self.jitter and delay > 0:
            digest = hashlib.sha256(
                f"{self.seed}:{attempt}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / float(2 ** 64)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return max(delay, 0.0)

    def call(
        self,
        fn: Callable[[], Any],
        site: str = "",
        deadline: Optional[Deadline] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``fn`` under this policy and return its result.

        Non-transient errors propagate immediately (retrying a
        deterministic failure only wastes the budget); transient ones
        are retried up to ``max_attempts`` with backoff.  A deadline,
        when given, is checked before every attempt and every sleep,
        so a retry loop can never outlive its budget.

        Args:
            fn: zero-argument operation to attempt.
            site: name used in error messages (``cache.spill.write``).
            deadline: optional budget bounding the whole loop.
            sleep: injectable sleep (tests pass a recorder).

        Returns:
            ``fn()``'s result from the first successful attempt.

        Raises:
            RetriesExhausted: every attempt failed transiently; the
                last error is chained as ``__cause__``.
            DeadlineExceeded: the deadline expired between attempts.
        """
        where = site or getattr(fn, "__name__", "operation")
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if deadline is not None:
                deadline.check(site=where)
            try:
                return fn()
            except BaseException as error:  # noqa: B036 - reclassified
                if not self.is_transient(error):
                    raise
                last = error
            if attempt + 1 < self.max_attempts:
                pause = self.backoff(attempt)
                if deadline is not None:
                    pause = deadline.bound(pause)
                if pause:
                    sleep(pause)
        raise RetriesExhausted(
            f"{where}: {self.max_attempts} attempt(s) failed; "
            f"last error: {type(last).__name__}: {last}",
            site=site or None,
        ) from last


def as_retry(
    value: Union[RetryPolicy, int, None]
) -> Optional[RetryPolicy]:
    """Coerce a retry argument: attempt count, policy, or ``None``.

    Args:
        value: ``None`` (no retries), a whole total attempt count
            (with default backoff), or a full :class:`RetryPolicy`.

    Returns:
        The resolved :class:`RetryPolicy` or ``None``.

    Raises:
        ValueError: ``value`` is a bool, NaN, fractional or below 1.
    """
    if value is None or isinstance(value, RetryPolicy):
        return value
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not float(value).is_integer()
    ):
        raise ValueError(
            f"retry must be a RetryPolicy or a whole attempt count, "
            f"not {value!r}"
        )
    return RetryPolicy(max_attempts=int(value))
