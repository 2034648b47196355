"""The resilience layer: deadlines, retries, faults, degradation.

* :mod:`~.policies` — :class:`Deadline` (a monotonic budget checked
  at cooperative checkpoints) and :class:`RetryPolicy` (bounded
  attempts of transiently failing work, exponential backoff,
  deterministic jitter);
* :mod:`~.errors` — the typed failure taxonomy
  (:class:`ResilienceError` → :class:`DeadlineExceeded`,
  :class:`RetriesExhausted`, :class:`DegradedCache`), all under
  :class:`~repro.pipeline.state.PipelineError` so flow-context
  wrapping applies;
* :mod:`~.faults` — named injection sites planted along the stack's
  I/O and concurrency edges, activated by a :class:`FaultPlan` (per
  test or via ``REPRO_FAULTS``) — the chaos-testing harness that
  proves every degraded path ends in a correct circuit or a typed
  error.

Each setting lives on the constructor of the object that runs the
work: ``Pipeline(deadline=, retry=)`` bounds and retries passes
(``repro.compile`` forwards both), :class:`~repro.pipeline.PassCache`
retries transient disk I/O and degrades to memory-only, and
``CompilerSession(job_timeout=, retry=)`` bounds and re-dispatches
every batched job so one poisoned job cannot sink a batch.
"""

from .errors import (
    DeadlineExceeded,
    DegradedCache,
    ResilienceError,
    RetriesExhausted,
)
from .faults import (
    ACTIONS,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedOSError,
    InjectedTimeout,
    active_plan,
    fault_point,
    install,
    mutate_payload,
    plan_from_env,
)
from .policies import Deadline, RetryPolicy, as_deadline, as_retry

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "RetriesExhausted",
    "DegradedCache",
    "Deadline",
    "RetryPolicy",
    "as_deadline",
    "as_retry",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedOSError",
    "InjectedTimeout",
    "ACTIONS",
    "KNOWN_SITES",
    "active_plan",
    "fault_point",
    "install",
    "mutate_payload",
    "plan_from_env",
]
