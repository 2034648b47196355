"""Flow state and content fingerprinting for the pass manager.

A compilation flow (Sec. VI, Eq. (5)) threads a small store through a
sequence of passes: the current Boolean specification, the current
reversible (MCT) cascade, the current quantum circuit, and the routing
bookkeeping.  :class:`FlowState` is that store; it mirrors the RevKit
shell's function/circuit registers so the shell, the framework flows,
and the benchmarks can all share one pass-manager substrate.

:func:`state_token` and :func:`state_key` derive deterministic content
fingerprints from the store, which the pass-result cache uses to key
results by *what* a pass consumed rather than by object identity.  A
frozen circuit's fingerprint is a digest computed once per value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Union

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..mapping.routing import RoutingResult
from ..synthesis.reversible import ReversibleCircuit

#: Names of the structured fields a pass may read or write.
FIELDS = ("function", "reversible", "quantum", "routing", "artifacts")


class PipelineError(RuntimeError):
    """Raised when a pass cannot run or a flow is malformed."""


@dataclass
class FlowState:
    """The store threaded through a compilation flow.

    Attributes:
        function: Boolean specification (permutation or truth table).
        reversible: current MCT cascade.
        quantum: current quantum circuit.
        routing: layout bookkeeping of the last routing pass.
        artifacts: free-form side products (``ps``'s statistics, or
            whatever a caller's own pass records).
        certificate: what a verified run of the pass that produced
            this store claims about its own rewrite (``cancel``'s fused
            groups, ``rptm``'s block lengths), for that pass's check
            only.  The runner sets it and clears it after the check;
            it is ``None`` otherwise, is not one of :data:`FIELDS` (so
            it never reaches a cache key or entry), takes no part in
            ``==`` and is dropped by :meth:`copy`.
    """

    function: Optional[Union[BitPermutation, TruthTable]] = None
    reversible: Optional[ReversibleCircuit] = None
    quantum: Optional[QuantumCircuit] = None
    routing: Optional[RoutingResult] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)
    certificate: Any = field(default=None, compare=False, repr=False)

    def copy(self) -> "FlowState":
        """Return a shallow copy of the store with a fresh artifacts dict.

        Field values are shared: pass outputs are frozen at the pass
        boundary, so sharing them is safe.  The certificate is not
        copied: it speaks for the run that made this store only.
        """
        return FlowState(
            function=self.function,
            reversible=self.reversible,
            quantum=self.quantum,
            routing=self.routing,
            artifacts=dict(self.artifacts),
        )


def state_token(value: Any) -> str:
    """Return a deterministic content token for one store value.

    A circuit's token is the SHA-256 hex digest of its content text,
    computed once when the circuit is frozen (a builder recomputes it
    on every call), so a builder and its frozen twin share a token.
    A routing result's token embeds its circuit's digest.

    Args:
        value: a store field value — ``None``, a specification, a
            circuit, a routing result, or the artifacts dict.

    Returns:
        A string that is equal exactly when the content is equal,
        suitable for hashing into a cache key.
    """
    if value is None:
        return "none"
    if isinstance(value, BitPermutation):
        return f"perm:{tuple(value.image)!r}"
    if isinstance(value, TruthTable):
        return f"tt:{value.num_vars}:{value.bits}"
    if isinstance(value, (ReversibleCircuit, QuantumCircuit)):
        return value.memoized("state_token", lambda: _circuit_digest(value))
    if isinstance(value, RoutingResult):
        return (
            f"route:{state_token(value.circuit)}:{value.final_layout!r}"
        )
    if isinstance(value, dict):
        items = sorted((str(k), state_token(v)) for k, v in value.items())
        return f"dict:{items!r}"
    return f"obj:{value!r}"


def _circuit_digest(circuit: Union[ReversibleCircuit, QuantumCircuit]) -> str:
    """Hash a circuit's full content text into a hex digest."""
    if isinstance(circuit, ReversibleCircuit):
        gates = tuple(
            (g.target, g.controls, g.polarity) for g in circuit.gates
        )
        # the name participates: replayed outputs carry name-derived
        # metadata (``..._simp``, QASM headers), which must belong to
        # the circuit actually looked up.
        text = f"rev:{circuit.name}:{circuit.num_lines}:{gates!r}"
    else:
        gates = tuple(
            (g.name, g.targets, g.controls, g.params, g.cbits)
            for g in circuit.gates
        )
        text = (
            f"qc:{circuit.name}:{circuit.num_qubits}:"
            f"{circuit.num_clbits}:{gates!r}"
        )
    return hashlib.sha256(text.encode()).hexdigest()


def state_key(state: FlowState, fields: Iterable[str]) -> str:
    """Hash the named store fields into one hex content key.

    Args:
        state: the flow store to fingerprint.
        fields: field names (a subset of :data:`FIELDS`) to include.

    Returns:
        A sha256 hex digest over the selected fields' content tokens.
    """
    digest = hashlib.sha256()
    for name in fields:
        digest.update(name.encode())
        digest.update(b"=")
        digest.update(state_token(getattr(state, name)).encode())
        digest.update(b";")
    return digest.hexdigest()
