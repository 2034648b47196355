"""The resilience error taxonomy.

Every failure mode the resilience layer turns from a hang or a silent
swallow into a typed signal lives here, under one base class:

* :class:`ResilienceError` — the common base, a
  :class:`~repro.pipeline.state.PipelineError` so flow-context
  prefixing (``flow 'eq5' pass 3/6 ...``) applies unchanged;
* :class:`DeadlineExceeded` — a cooperative deadline ran out.

Each error *names its site* inside the message
(``pipeline.apply(tbs)``, ...), so the site survives the pipeline's
re-raise-with-context wrapping, which rebuilds exceptions from their
message alone.
"""

from __future__ import annotations

from typing import Optional

from ..pipeline.state import PipelineError


class ResilienceError(PipelineError):
    """Base class for typed failures raised by the resilience layer.

    Args:
        message: human-readable description; by convention it starts
            with the failing site name so context-wrapping re-raises
            preserve it.
        site: optional machine-readable site name
            (``pipeline.apply(tbs)``, ...); informational — the
            message is the durable carrier.
    """

    def __init__(self, message: str, site: Optional[str] = None) -> None:
        """Store the message and remember the failing site."""
        super().__init__(message)
        self.site = site


class DeadlineExceeded(ResilienceError):
    """Raised when a cooperative :class:`~.policies.Deadline` expires.

    Deadlines are checked at cooperative checkpoints (before every
    pass), so the error surfaces at the next checkpoint after the
    budget runs out — never mid-pass.
    """
