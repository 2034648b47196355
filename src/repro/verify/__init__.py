"""Tiered equivalence checking — verification that scales past 2^n.

Sec. IX of the paper makes functional verification an obligation of
the design-automation flow.  This subsystem discharges it with a
*tiered* strategy instead of dense ``2^n`` unitaries everywhere:

* :class:`~.checker.EquivalenceChecker` picks the cheapest sound
  check per pass — permutation tables for reversible cascades,
  the stabilizer-tableau identity test for Clifford circuits (any
  width, polynomial), an exact SWAP-relabelling replay of a routing
  (any width, linear), dense unitaries as the small-width oracle, and
  seeded random state-fidelity probes as the any-width fallback;
* :class:`~.verdict.Verdict` records which tier ran, its cost and its
  outcome — a skipped check is always explicit, never a silent pass.

Surfaced through ``Pipeline(verify=...)``,
``repro.compile(verify="auto"|"strict"|"off")``, ``Target.verify``
and the CLI ``--verify`` flag.  Tier selection rules and soundness
guarantees are documented in docs/ARCHITECTURE.md ("Tiered
verification").
"""

from . import tiers
from .checker import (
    DEFAULT_MAX_PROBE_QUBITS,
    DEFAULT_MAX_TABLE_LINES,
    DEFAULT_PROBES,
    MODES,
    EquivalenceChecker,
    as_checker,
    default_checker,
)
from .verdict import Verdict

__all__ = [
    "tiers",
    "DEFAULT_MAX_PROBE_QUBITS",
    "DEFAULT_MAX_TABLE_LINES",
    "DEFAULT_PROBES",
    "MODES",
    "EquivalenceChecker",
    "as_checker",
    "default_checker",
    "Verdict",
]

