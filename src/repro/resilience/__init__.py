"""The resilience layer: deadlines, faults, degradation.

* :mod:`~.policies` — :class:`Deadline`, a monotonic budget checked
  at cooperative checkpoints;
* :mod:`~.errors` — the typed failure taxonomy
  (:class:`ResilienceError` → :class:`DeadlineExceeded`), under
  :class:`~repro.pipeline.state.PipelineError` so flow-context
  wrapping applies;
* :mod:`~.faults` — named injection sites planted along the stack's
  disk I/O and pass runs, activated by a :class:`FaultPlan` (per
  test or via ``REPRO_FAULTS``) — the chaos-testing harness that
  proves every degraded path ends in a correct circuit or a typed
  error.

Each setting lives on the constructor of the object that runs the
work: ``Pipeline(deadline=)`` bounds a flow (``repro.compile``
forwards it; a :class:`~repro.compiler.CompilerSession` sweep is a
plain loop of such compiles), and :class:`~repro.pipeline.PassCache`
retries failing disk I/O and degrades to memory-only.  The disk tier
is the only place that retries: passes are deterministic, so a failed
pass raises.
"""

from .errors import DeadlineExceeded, ResilienceError
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
from .policies import Deadline, as_deadline

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "Deadline",
    "as_deadline",
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
