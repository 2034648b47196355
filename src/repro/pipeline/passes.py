"""Concrete passes wrapping the library's compilation entry points.

Each pass adapts one existing entry point — specification generation
(``revgen``), reversible synthesis (``tbs``/``dbs``/``esopbs``/...),
cascade simplification (``revsimp``/``templ``), Clifford+T mapping
(``rptm``), quantum-gate cancellation and T-par phase folding, device
routing, and statistics — to the uniform :class:`Pass` interface the
:class:`~.runner.Pipeline` executes.  Passes are stateless value
objects: constructor arguments select the algorithm variant, and
:meth:`Pass.signature` exposes them so cached results can be keyed by
(pass, parameters, input content).

A verifying pipeline runs a pass through :meth:`Pass.run_certified`,
which returns the output together with a certificate from that same
run (``cancel``'s fused groups, ``rptm``'s block lengths) for the
pass's check to validate.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.statistics import circuit_statistics
from ..mapping.barenco import map_to_clifford_t, map_with_block_lengths
from ..mapping.routing import CouplingMap, route_circuit
from ..optimization.simplify import (
    cancel_adjacent_gates,
    cancel_with_groups,
    simplify_reversible,
)
from ..optimization.templates import template_optimize
from ..optimization.tpar import tpar_optimize
from ..synthesis.bdd_based import bdd_synthesis
from ..synthesis.decomposition import decomposition_based_synthesis
from ..synthesis.embedding import verify_bennett_circuit
from ..synthesis.esop_based import esop_synthesis
from ..synthesis.exact import exact_synthesis
from ..synthesis.transformation import (
    bidirectional_synthesis,
    transformation_based_synthesis,
)
from ..verify.checker import EquivalenceChecker
from ..verify.verdict import Verdict, timed
from .state import FlowState, PipelineError

#: The list a certified run collects its certificate in, or ``None``
#: outside one.  A context variable, not an argument of :meth:`Pass.run`:
#: a subclass that overrides ``run`` and calls ``super().run`` still
#: hands over the certificate of the run it made.
_CERTIFICATES: ContextVar[Optional[List[Any]]] = ContextVar(
    "certificates", default=None
)


def _certified_run(pass_: "Pass", state: FlowState) -> Tuple[FlowState, Any]:
    """Run ``pass_`` and return its output with that run's certificate."""
    sink: List[Any] = []
    token = _CERTIFICATES.set(sink)
    try:
        out = pass_.run(state)
    finally:
        _CERTIFICATES.reset(token)
    return out, sink[-1] if sink else None


def _produce(plain: Callable, certified: Callable, *args, **kwargs) -> Any:
    """Call ``plain``; inside a certified run, ``certified`` instead.

    ``certified`` takes the same arguments and returns ``(output,
    certificate)``; the certificate goes to the run's collecting list.
    """
    sink = _CERTIFICATES.get()
    if sink is None:
        return plain(*args, **kwargs)
    output, certificate = certified(*args, **kwargs)
    sink.append(certificate)
    return output


class Pass:
    """One step of a compilation flow.

    Subclasses set :attr:`name` (the RevKit-style command name),
    :attr:`stage` (coarse flow phase), :attr:`reads`/:attr:`writes`
    (store fields consumed/produced — the cache keys on the content of
    ``reads``), and implement :meth:`run`.

    Attributes:
        name: short command-style identifier (``tbs``, ``rptm``, ...).
        stage: flow phase — ``generate``, ``synthesis``,
            ``optimization``, ``mapping``, ``routing`` or ``analysis``.
        reads: store fields whose content determines the result.
        writes: store fields the pass replaces.
        cacheable: whether ``(name, signature())`` faithfully
            identifies the computation; passes wrapping opaque
            callables must clear this to opt out of result caching.
    """

    name: str = "pass"
    stage: str = "transform"
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    cacheable: bool = True

    def run(self, state: FlowState) -> FlowState:
        """Execute the pass on a copy of ``state`` and return it.

        Args:
            state: the incoming flow store (never mutated).

        Returns:
            A new :class:`~.state.FlowState` with ``writes`` updated.
        """
        raise NotImplementedError

    def run_certified(self, state: FlowState) -> Tuple[FlowState, Any]:
        """Run the pass; return its output and that run's certificate.

        A verifying pipeline calls this instead of :meth:`run` and puts
        the certificate on the output's
        :attr:`~.state.FlowState.certificate` slot for :meth:`check`.
        A certificate is only a claim about the run's own rewrite: the
        checker validates it and falls through when it does not hold.
        This base version makes none.

        Args:
            state: the incoming flow store (never mutated).

        Returns:
            ``(new state, certificate or None)``.
        """
        return self.run(state), None

    def signature(self) -> Tuple[Any, ...]:
        """Return the parameter tuple that identifies this variant.

        Two pass instances with equal ``(name, signature())`` must
        compute the same function of their ``reads`` fields; the
        result cache relies on this.
        """
        return ()

    @timed
    def check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Run the tiered semantic check for this pass.

        Passes implement :meth:`_tiered_check`; this entry point stamps
        the verdict with the wall-clock cost of the whole check.

        Args:
            checker: the pipeline's
                :class:`~repro.verify.EquivalenceChecker`.
            before: store content entering the pass.
            after: store content the pass produced.

        Returns:
            The :class:`~repro.verify.Verdict` of the check.
        """
        return self._tiered_check(checker, before, after)

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Tiered check implementation.

        The base implementation covers passes that leave the flow's
        semantic payloads alone (statistics, reporting, cache
        bookkeeping): when every semantic store field is unchanged —
        by identity or by value — the pass trivially preserved the
        semantics and the check passes at the ``syntactic`` tier.
        A pass that did rewrite a semantic field but declares no
        check gets an explicit skip, never a silent pass.
        """
        for field in ("function", "reversible", "quantum", "routing"):
            old = getattr(before, field)
            new = getattr(after, field)
            if old is new:
                continue
            if old is not None and new is not None and old == new:
                continue
            return Verdict.skip(
                "none", f"pass {self.name!r} declares no functional check"
            )
        return Verdict.accept(
            "syntactic", detail="semantic store fields unchanged"
        )

    def _certificate(self, before: FlowState, after: FlowState) -> Any:
        """The certificate of the run that made ``after``.

        A store without one (a replayed cache entry that was never
        verified, or a direct :meth:`check` call) gets the one a fresh
        certified run on ``before`` makes, so such a check keeps its
        certificate tier.
        """
        if after.certificate is not None:
            return after.certificate
        return self.run_certified(before)[1]

    def statistics(self, before: FlowState, after: FlowState) -> Dict[str, Any]:
        """Report pass-specific statistics for the flow record.

        Args:
            before: store content entering the pass.
            after: store content the pass produced.

        Returns:
            A dict of extra metrics merged into the pass record.
        """
        return {}

    def __repr__(self) -> str:
        """Return ``Name(param=value, ...)`` for debugging."""
        params = ", ".join(repr(v) for v in self.signature())
        return f"{type(self).__name__}({params})"


# ----------------------------------------------------------------------
# specification generation (revgen)
# ----------------------------------------------------------------------
#: generator family -> function name in :mod:`repro.revkit.generators`
#: (imported lazily inside :meth:`GeneratePass.run`; importing the
#: ``revkit`` package here would be circular, since its shell builds on
#: this pass manager).
_GENERATORS: Dict[str, str] = {
    "hwb": "hwb",
    "random": "random_permutation",
    "adder": "modular_adder",
    "rotate": "bit_rotation",
    "gray": "gray_code",
    "bent": "inner_product_bent",
    "randfunc": "random_function",
}

#: public registry of generator families, in shell option order — the
#: single source the shell's ``revgen`` and the flow builders consult.
GENERATOR_KINDS = tuple(_GENERATORS)

#: shell option spelling -> generator keyword argument.
_GENERATOR_KWARGS = {"const": "constant"}

#: defaults applied when an option is omitted, mirroring the shell's
#: historical behavior (a fixed seed keeps passes deterministic and
#: therefore cacheable).
_GENERATOR_DEFAULTS = {
    "random": {"seed": 0},
    "randfunc": {"seed": 0},
    "adder": {"constant": 1},
}

#: options each generator family accepts; anything else is silently
#: dropped, matching the shell's historical tolerance of irrelevant
#: options (``revgen --hwb 4 --seed 3`` ignored the seed).
_GENERATOR_OPTIONS = {
    "hwb": (),
    "random": ("seed",),
    "adder": ("constant",),
    "rotate": ("amount",),
    "gray": (),
    "bent": (),
    "randfunc": ("seed",),
}


class GeneratePass(Pass):
    """Produce a benchmark specification — the ``revgen`` command.

    Args:
        kind: generator family (``hwb``, ``random``, ``adder``,
            ``rotate``, ``gray``, ``bent``, ``randfunc``).
        n: problem size in bits/variables.
        **params: family-specific options (``seed``, ``const``,
            ``amount``); options irrelevant to the family are
            ignored, matching the shell's historical tolerance.
    """

    stage = "generate"
    reads = ()
    writes = ("function",)

    def __init__(self, kind: str, n: int, **params) -> None:
        """Select the generator family, size and options."""
        if kind not in _GENERATORS:
            raise PipelineError(f"unknown generator {kind!r}")
        self.name = f"revgen-{kind}"
        self.kind = kind
        self.n = int(n)
        accepted = _GENERATOR_OPTIONS[kind]
        merged = dict(_GENERATOR_DEFAULTS.get(kind, {}))
        for key, value in params.items():
            key = _GENERATOR_KWARGS.get(key, key)
            if key in accepted:
                merged[key] = int(value)
        self.params = dict(sorted(merged.items()))

    def signature(self) -> Tuple[Any, ...]:
        """Return (kind, n, sorted options)."""
        return (self.kind, self.n, tuple(self.params.items()))

    def run(self, state: FlowState) -> FlowState:
        """Write the generated specification into ``function``."""
        out = state.copy()
        out.function = self._generate()
        return out

    def _generate(self):
        """Build the specification (deterministic in the signature)."""
        from ..revkit import generators

        generate = getattr(generators, _GENERATORS[self.kind])
        return generate(self.n, **self.params)

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Re-run the (deterministic) generator and compare outputs."""
        if after.function == self._generate():
            return Verdict.accept(
                "specification",
                detail="regenerated specification matches",
                checks=1,
            )
        return Verdict.reject(
            "specification",
            "stored specification differs from the regenerated one",
            checks=1,
        )


# ----------------------------------------------------------------------
# reversible synthesis (tbs / dbs / exs / esopbs / bdd)
# ----------------------------------------------------------------------
_SYNTHESIS_METHODS = ("tbs", "tbs-bidir", "dbs", "exact", "esop", "bdd")


def _resolvable_by_name(function) -> bool:
    """Return whether ``function`` is its module's attribute of that name.

    Only then is ``(module, qualname)`` a faithful cache identity;
    closures and lambdas share qualnames across distinct behaviors.
    """
    import sys

    module = sys.modules.get(getattr(function, "__module__", None) or "")
    qualname = getattr(function, "__qualname__", "")
    return (
        module is not None
        and "." not in qualname
        and getattr(module, qualname, None) is function
    )


class SynthesisPass(Pass):
    """Synthesize the specification into an MCT cascade.

    Wraps the reversible-synthesis portfolio of Sec. V: pass
    ``method`` to pick transformation-based (``tbs``), bidirectional
    (``tbs-bidir``), decomposition-based (``dbs``), exact search
    (``exact``), ESOP-based (``esop``) or BDD-based (``bdd``)
    synthesis — or give an explicit callable mapping a
    :class:`~repro.boolean.permutation.BitPermutation` to a
    :class:`~repro.synthesis.reversible.ReversibleCircuit`.

    Args:
        method: one of the method names above, or a callable.
    """

    stage = "synthesis"
    reads = ("function",)
    writes = ("reversible",)

    def __init__(self, method="tbs") -> None:
        """Select the synthesis method (name or callable)."""
        if callable(method) and not isinstance(method, str):
            self.method = method
            self.name = getattr(method, "__name__", "custom")
            # (module, qualname) only identifies a resolvable
            # module-level function; closures/lambdas sharing a
            # qualname would collide in the cache, so opt out.
            self.cacheable = _resolvable_by_name(method)
        elif method in _SYNTHESIS_METHODS:
            self.method = method
            self.name = method
        else:
            raise PipelineError(f"unknown synthesis method {method!r}")

    def signature(self) -> Tuple[Any, ...]:
        """Return the method name (or callable qualname) as the key."""
        if isinstance(self.method, str):
            return (self.method,)
        return (
            getattr(self.method, "__module__", "?"),
            getattr(self.method, "__qualname__", repr(self.method)),
        )

    def run(self, state: FlowState) -> FlowState:
        """Synthesize ``function`` into ``reversible``."""
        out = state.copy()
        out.reversible = None
        function = state.function
        if function is None:
            raise PipelineError(f"{self.name}: no specification in store")
        if not isinstance(self.method, str):
            out.reversible = self.method(function)
            return out
        if self.method == "esop":
            if not isinstance(function, TruthTable):
                raise PipelineError("esop synthesis needs a truth table")
            out.reversible = esop_synthesis(function)
            return out
        if self.method == "bdd":
            if not isinstance(function, TruthTable):
                raise PipelineError("bdd synthesis needs a truth table")
            out.reversible = bdd_synthesis(function).circuit
            return out
        if not isinstance(function, BitPermutation):
            raise PipelineError(f"{self.name} synthesis needs a permutation")
        if self.method == "tbs":
            out.reversible = transformation_based_synthesis(function)
        elif self.method == "tbs-bidir":
            out.reversible = bidirectional_synthesis(function)
        elif self.method == "dbs":
            out.reversible = decomposition_based_synthesis(function)
        else:  # exact
            circuit = exact_synthesis(function)
            if circuit is None:
                raise PipelineError("exact synthesis exceeded the gate bound")
            out.reversible = circuit
        return out

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check the cascade against the specification.

        The kind of specification picks the check, whatever the method:
        a truth table's cascade (esop, bdd or a callable) must compute
        it in the Bennett line layout, anything else goes to
        :meth:`~repro.verify.EquivalenceChecker.check_specification`.
        """
        function, cascade = after.function, after.reversible
        if cascade is None:
            return Verdict.reject(
                "specification", "synthesis produced no cascade"
            )
        if not isinstance(function, TruthTable):
            return checker.check_specification(cascade, function)
        if not verify_bennett_circuit(cascade, function):
            return Verdict.reject(
                "specification",
                f"{self.name} cascade does not compute the truth table",
            )
        agrees = {"esop": "esop covers agree", "bdd": "bdd evaluation agrees"}
        return Verdict.accept(
            "specification",
            detail=agrees.get(self.name, "cascade computes the truth table"),
        )


# ----------------------------------------------------------------------
# cascade optimization (revsimp / templ)
# ----------------------------------------------------------------------
class SimplifyPass(Pass):
    """Cancel and merge MCT gates — the ``revsimp`` command.

    Wraps :func:`~repro.optimization.simplify.simplify_reversible`.
    """

    name = "revsimp"
    stage = "optimization"
    reads = ("reversible",)
    writes = ("reversible",)

    def run(self, state: FlowState) -> FlowState:
        """Rewrite ``reversible`` with the simplified cascade."""
        if state.reversible is None:
            raise PipelineError("revsimp: no reversible circuit in store")
        out = state.copy()
        out.reversible = simplify_reversible(state.reversible)
        return out

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check that the cascade permutation is unchanged."""
        return checker.check_same_permutation(
            before.reversible, after.reversible
        )


class TemplatePass(Pass):
    """Apply template rewriting to the cascade — the ``templ`` command."""

    name = "templ"
    stage = "optimization"
    reads = ("reversible",)
    writes = ("reversible",)

    def run(self, state: FlowState) -> FlowState:
        """Rewrite ``reversible`` with the template-optimized cascade."""
        if state.reversible is None:
            raise PipelineError("templ: no reversible circuit in store")
        out = state.copy()
        out.reversible = template_optimize(state.reversible)
        return out

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check that the cascade permutation is unchanged."""
        return checker.check_same_permutation(
            before.reversible, after.reversible
        )


# ----------------------------------------------------------------------
# Clifford+T mapping (rptm)
# ----------------------------------------------------------------------
class MapToCliffordTPass(Pass):
    """Map the cascade (or an MCT-bearing circuit) to Clifford+T.

    Wraps :func:`~repro.mapping.barenco.map_to_clifford_t` — the
    ``rptm`` command when ``relative_phase`` is true (Sec. V's
    relative-phase Toffoli mapping [42]).

    Args:
        relative_phase: use RCCX ladders (cheaper T-count).
        only_if_needed: when reading a quantum circuit, skip mapping
            if it contains no multi-controlled gates.
    """

    stage = "mapping"
    reads = ("reversible", "quantum")
    writes = ("quantum",)

    def __init__(
        self,
        relative_phase: bool = True,
        only_if_needed: bool = False,
    ) -> None:
        """Store the mapping options."""
        self.name = "rptm" if relative_phase else "ctmap"
        self.relative_phase = relative_phase
        self.only_if_needed = only_if_needed

    def signature(self) -> Tuple[Any, ...]:
        """Return the mapping option pair."""
        return (self.relative_phase, self.only_if_needed)

    def _uses_quantum_source(self, state: FlowState) -> bool:
        """Decide whether the pass lowers ``quantum`` or the cascade.

        The shell's ``rptm`` maps the cascade; the device flow's
        on-need lowering (``only_if_needed``) operates on the current
        quantum circuit even when a (possibly stale) cascade is still
        in the store from an earlier stage.
        """
        if state.reversible is None:
            return True
        return self.only_if_needed and state.quantum is not None

    def run(self, state: FlowState) -> FlowState:
        """Write the Clifford+T circuit into ``quantum``.

        Maps the reversible cascade when it is the flow's source;
        with ``only_if_needed`` (the device flow) the current quantum
        circuit is lowered instead, and left untouched when it has no
        multi-controlled gates.
        """
        if not self._uses_quantum_source(state):
            source = state.reversible
        elif state.quantum is None:
            raise PipelineError("rptm: no circuit in store")
        elif self.only_if_needed and not any(
            g.name in ("ccx", "ccz", "mcx", "mcz", "cz")
            for g in state.quantum.gates
        ):
            return state.copy()
        else:
            source = state.quantum
        out = state.copy()
        out.quantum = _produce(
            map_to_clifford_t,
            map_with_block_lengths,
            source,
            relative_phase=self.relative_phase,
        )
        return out

    def run_certified(self, state: FlowState) -> Tuple[FlowState, Any]:
        """Run the pass; the certificate is the lowering's block lengths."""
        return _certified_run(self, state)

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check the mapped circuit against its actual source.

        Cascade lowering uses the ancilla-aware basis-state tiers;
        quantum-circuit lowering uses the extended-unitary tiers,
        which also cover register widening by clean ancillae.  Both
        get the block lengths the lowering counted as a certificate,
        which the checker validates block by block before any
        whole-circuit tier.  An untouched circuit (on-need lowering
        found nothing to lower) passes syntactically without any
        simulation.
        """
        if after.quantum is None:
            return Verdict.skip("none", "mapping produced no quantum circuit")
        if not self._uses_quantum_source(before):
            return checker.check_mapped_circuit(
                after.quantum, before.reversible,
                blocks=self._certificate(before, after),
            )
        if before.quantum is not None:
            if (
                before.quantum.num_qubits == after.quantum.num_qubits
                and before.quantum.gates == after.quantum.gates
            ):
                return Verdict.accept(
                    "syntactic", detail="circuit unchanged"
                )
            return checker.check_extended_unitary(
                before.quantum, after.quantum,
                blocks=self._certificate(before, after),
            )
        return Verdict.skip("none", "mapping had no source circuit to compare")


# ----------------------------------------------------------------------
# quantum-circuit optimization (cancel / tpar)
# ----------------------------------------------------------------------
class CancelPass(Pass):
    """Cancel adjacent inverse gate pairs — the ``cancel`` command."""

    name = "cancel"
    stage = "optimization"
    reads = ("quantum",)
    writes = ("quantum",)

    def run(self, state: FlowState) -> FlowState:
        """Rewrite ``quantum`` with adjacent inverses cancelled."""
        if state.quantum is None:
            raise PipelineError("cancel: no quantum circuit in store")
        out = state.copy()
        out.quantum = _produce(
            cancel_adjacent_gates, cancel_with_groups, state.quantum
        )
        return out

    def run_certified(self, state: FlowState) -> Tuple[FlowState, Any]:
        """Run the pass; the certificate is the groups of gates it fused."""
        return _certified_run(self, state)

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check unitary equivalence up to global phase.

        The checker gets the groups of input gates the pass fused as a
        certificate, which it validates group by group before any
        whole-circuit tier.
        """
        return checker.check_same_unitary(
            before.quantum, after.quantum,
            groups=self._certificate(before, after),
        )


class TparPass(Pass):
    """Fold the phase polynomial to cut T-count — the ``tpar`` command.

    Gate cancellation always runs after the folding.

    Args:
        pre_cancel: run gate cancellation before folding too (the
            shell's ``tpar`` does, exposing more parity collisions).
    """

    name = "tpar"
    stage = "optimization"
    reads = ("quantum",)
    writes = ("quantum",)

    def __init__(self, pre_cancel: bool = True) -> None:
        """Store whether gate cancellation also runs before folding."""
        self.pre_cancel = pre_cancel

    def signature(self) -> Tuple[Any, ...]:
        """Return (pre_cancel,)."""
        return (self.pre_cancel,)

    def run(self, state: FlowState) -> FlowState:
        """Rewrite ``quantum`` with merged phase rotations."""
        if state.quantum is None:
            raise PipelineError("tpar: no quantum circuit in store")
        out = state.copy()
        work = state.quantum
        if self.pre_cancel:
            work = cancel_adjacent_gates(work)
        out.quantum = cancel_adjacent_gates(tpar_optimize(work))
        return out

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check unitary equivalence up to global phase."""
        return checker.check_same_unitary(before.quantum, after.quantum)


# ----------------------------------------------------------------------
# device routing
# ----------------------------------------------------------------------
class RoutePass(Pass):
    """Insert SWAPs to fit a device coupling graph.

    Wraps :func:`~repro.mapping.routing.route_circuit` (the stage the
    paper delegates to IBM's stack in Sec. VII).

    Args:
        coupling: target device topology.
    """

    name = "route"
    stage = "routing"
    reads = ("quantum",)
    writes = ("quantum", "routing")

    def __init__(self, coupling: CouplingMap) -> None:
        """Store the device topology."""
        self.coupling = coupling

    def signature(self) -> Tuple[Any, ...]:
        """Return (num_qubits, sorted edges)."""
        edges = tuple(sorted(tuple(sorted(e)) for e in self.coupling.edges))
        return (self.coupling.num_qubits, edges)

    def run(self, state: FlowState) -> FlowState:
        """Write the routed circuit and layout bookkeeping."""
        if state.quantum is None:
            raise PipelineError("route: no quantum circuit in store")
        out = state.copy()
        result = route_circuit(state.quantum, self.coupling)
        out.quantum = result.circuit
        out.routing = result
        return out

    def _tiered_check(
        self,
        checker: EquivalenceChecker,
        before: FlowState,
        after: FlowState,
    ) -> Verdict:
        """Check the routed circuit exactly, at any device width.

        :meth:`~repro.verify.EquivalenceChecker.check_routing` replays
        ``after.routing`` as the input circuit with SWAPs relabelling
        wires, every two-wire gate on one of this pass's coupled pairs
        (tier ``swap``).  The flow carries on with
        ``after.quantum``, which results and emitters read, so that
        must be the routed circuit gate for gate as well.
        """
        routing = after.routing
        if routing is not None and after.quantum != routing.circuit:
            return Verdict.reject(
                "swap", "the flow's circuit is not the routed circuit"
            )
        return checker.check_routing(
            before.quantum, routing, self.coupling.edges
        )

    def statistics(self, before: FlowState, after: FlowState) -> Dict[str, Any]:
        """Report the SWAP count of the routing result."""
        if after.routing is None:
            return {}
        return {"swaps": after.routing.swap_count}


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class StatisticsPass(Pass):
    """Collect ``ps -c`` statistics into the artifacts store."""

    name = "ps"
    stage = "analysis"
    reads = ("quantum",)
    writes = ("artifacts",)

    def run(self, state: FlowState) -> FlowState:
        """Store the statistics bundle under ``artifacts['statistics']``."""
        if state.quantum is None:
            raise PipelineError("ps: no quantum circuit in store")
        out = state.copy()
        out.artifacts["statistics"] = circuit_statistics(state.quantum)
        return out

    def statistics(self, before: FlowState, after: FlowState) -> Dict[str, Any]:
        """Report the collected statistics bundle."""
        stats = after.artifacts.get("statistics")
        return {"statistics": stats} if stats is not None else {}
