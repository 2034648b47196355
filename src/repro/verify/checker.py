"""The tiered equivalence checker: cheapest sound check per pass.

:class:`EquivalenceChecker` picks, for every kind of semantic check a
pass needs, the cheapest tier that is sound for the circuits at hand
and wraps the outcome in a :class:`~.verdict.Verdict`:

1. **syntactic** — identical gate lists (free, exact);
2. **permutation** — integer bit-simulation of reversible cascades
   and classical (X/CNOT/Toffoli/SWAP) circuits over every basis
   input (exact, ``O(2^n . gates)`` in the *data* width only);
3. **stabilizer** — the composed-tableau identity test for Clifford
   circuits, applied after stripping the common gate prefix/suffix
   (exact at any width, polynomial);
4. **dense** — full-unitary comparison, used as the small-width
   oracle, for non-Clifford remainders whose joint support is
   narrow enough to compact, block by block for a lowering that
   certifies which output gates stand for each input gate, and group
   by group for a gate cancellation that certifies which input gates
   it fused;
5. **probes** — seeded random product-state fidelity probes, the
   any-width fallback (sound rejection, probabilistic acceptance);
6. **swap** — the routing check: the routed circuit replayed as the
   original's gates on wires its SWAPs relabel (exact, linear, any
   width, measurements and resets included).

Checks that no tier can run return an explicitly *skipped* verdict —
never a silent pass — and ``mode="strict"`` lets callers escalate
skips to hard failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..boolean.permutation import BitPermutation
from ..core.circuit import QuantumCircuit
from ..core.gates import NON_UNITARY
from ..core.unitary import MAX_UNITARY_QUBITS
from ..simulator.statevector import Statevector
from ..synthesis.reversible import MctGate, ReversibleCircuit
from . import tiers
from .verdict import Verdict, timed

#: Widest register for which dense unitary checks are attempted.
DEFAULT_MAX_DENSE_QUBITS = 10

#: Widest register for which statevector probes are attempted.
DEFAULT_MAX_PROBE_QUBITS = 20

#: Widest data register enumerated exhaustively (2^n inputs).
DEFAULT_MAX_TABLE_LINES = 16

#: Probe count of the randomized tier.
DEFAULT_PROBES = 8

#: Seed deriving the (reproducible) probe states.
DEFAULT_SEED = 2018

#: Verification modes ``as_checker`` accepts as strings.
MODES = ("auto", "strict", "off")

#: Distinct local blocks whose dense verdicts are kept; a lowering has
#: a handful of block shapes (the Fig. 10 pool has five in all), and a
#: gate cancellation a handful of group shapes (four on that pool).
_BLOCK_MEMO_SIZE = 1024


@dataclass(frozen=True)
class EquivalenceChecker:
    """Tier-selection policy plus the dense width and tolerance.

    The exhaustive-table width, the probe width, the probe count and
    the probe seed are the module's ``DEFAULT_*`` constants.

    Attributes:
        mode: ``"auto"`` (skips are reported but tolerated) or
            ``"strict"`` (the pipeline escalates skipped checks to
            :class:`~repro.pipeline.runner.VerificationError`).
        max_dense_qubits: widest register for the dense-unitary tier.
        atol: numeric tolerance of the dense and probe tiers.
    """

    mode: str = "auto"
    max_dense_qubits: int = DEFAULT_MAX_DENSE_QUBITS
    atol: float = 1e-7

    def __post_init__(self) -> None:
        """Validate the mode name, the dense width and the tolerance.

        Raises:
            ValueError: for modes other than ``auto``/``strict``, a
                ``max_dense_qubits`` that is not an int (bools
                included) in ``0..MAX_UNITARY_QUBITS``, or an ``atol``
                that is not a finite, non-negative number.
        """
        if self.mode not in ("auto", "strict"):
            raise ValueError(
                f"unknown verification mode {self.mode!r}; use 'auto' "
                "or 'strict' (or 'off' via as_checker)"
            )
        width = self.max_dense_qubits
        if (
            isinstance(width, bool)
            or not isinstance(width, int)
            or not 0 <= width <= MAX_UNITARY_QUBITS
        ):
            raise ValueError(
                f"max_dense_qubits must be an int in 0..{MAX_UNITARY_QUBITS}, "
                f"not {width!r}"
            )
        atol = self.atol
        if (
            isinstance(atol, bool)
            or not isinstance(atol, (int, float))
            or not math.isfinite(atol)
            or atol < 0
        ):
            raise ValueError(
                f"atol must be a finite number >= 0, not {atol!r}"
            )

    @property
    def strict(self) -> bool:
        """Whether skipped checks should fail the compilation."""
        return self.mode == "strict"

    # ------------------------------------------------------------------
    # cascade-level checks
    # ------------------------------------------------------------------
    @timed
    def check_same_permutation(
        self, before: ReversibleCircuit, after: ReversibleCircuit
    ) -> Verdict:
        """Check that a cascade rewrite preserved the permutation.

        Enumerates every basis input up to ``DEFAULT_MAX_TABLE_LINES``
        data lines (exact), and falls back to seeded random basis-input
        probes at larger widths.

        Args:
            before: the cascade entering the pass.
            after: the cascade the pass produced.

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        if before.num_lines != after.num_lines:
            return Verdict.reject("permutation", "pass changed the line count")
        n = before.num_lines
        if n <= DEFAULT_MAX_TABLE_LINES:
            for x in range(1 << n):
                if before.apply(x) != after.apply(x):
                    return Verdict.reject(
                        "permutation",
                        "pass changed the realized permutation "
                        f"(input {x})",
                        checks=x + 1,
                    )
            return Verdict.accept("permutation", checks=1 << n)
        rng = np.random.default_rng(DEFAULT_SEED)
        for i in range(DEFAULT_PROBES):
            x = int(rng.integers(0, 1 << n))
            if before.apply(x) != after.apply(x):
                return Verdict.reject(
                    "probes",
                    "pass changed the realized permutation "
                    f"(probe input {x})",
                    checks=i + 1,
                )
        return Verdict.accept(
            "probes",
            detail=f"{DEFAULT_PROBES} random basis inputs agree",
            checks=DEFAULT_PROBES,
        )

    @timed
    def check_specification(
        self, reversible: ReversibleCircuit, function
    ) -> Verdict:
        """Check a synthesized cascade against its specification.

        Args:
            reversible: the synthesized MCT cascade.
            function: a :class:`~repro.boolean.permutation.BitPermutation`
                is checked exactly on every input; other specification
                kinds are skipped here (their line embedding is
                synthesis-specific and checked by the synthesis pass
                itself).

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        if not isinstance(function, BitPermutation):
            return Verdict.skip(
                "none",
                f"specification kind {type(function).__name__} has a "
                "synthesis-specific embedding; no generic check applies",
            )
        n = reversible.num_lines
        if n > DEFAULT_MAX_TABLE_LINES:
            return Verdict.skip(
                "permutation",
                f"{n} lines exceed the {DEFAULT_MAX_TABLE_LINES}-line "
                "exhaustive-table limit",
            )
        for x in range(1 << n):
            if reversible.apply(x) != function(x):
                return Verdict.reject(
                    "permutation",
                    "synthesized cascade does not realize the "
                    f"permutation (input {x})",
                    checks=x + 1,
                )
        return Verdict.accept("permutation", checks=1 << n)

    # ------------------------------------------------------------------
    # circuit-level checks
    # ------------------------------------------------------------------
    @timed
    def check_same_unitary(
        self,
        before: QuantumCircuit,
        after: QuantumCircuit,
        groups: Optional[Sequence] = None,
    ) -> Verdict:
        """Check two circuits for unitary equivalence up to phase.

        Tier order: syntactic identity, a ``groups`` certificate checked
        group by group (see :meth:`_rewrite_verdict`), stabilizer
        tableau on the stripped remainders (exact, any width), dense
        comparison on the remainders' joint support or the full
        register (exact, small widths), randomized fidelity probes (any
        width up to ``DEFAULT_MAX_PROBE_QUBITS``), else an explicit skip.

        Args:
            before: the circuit entering the pass.
            after: the circuit the pass produced.
            groups: optional certificate of a gate cancellation, one
                ``(members, slot)`` per group of ``before`` gates fused
                into ``after[slot]`` (``None``: into nothing).

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        if before.num_qubits != after.num_qubits:
            return Verdict.reject("dense", "pass changed the circuit width")
        n = before.num_qubits
        gates_before = tiers.semantic_gates(before)
        gates_after = tiers.semantic_gates(after)
        if gates_before == gates_after:
            return Verdict.accept("syntactic", detail="gate lists identical")
        if groups is not None:
            verdict = self._rewrite_verdict(before, after, groups)
            if verdict is not None:
                return verdict
        if before.has_measurements() or after.has_measurements():
            return Verdict.skip(
                "none",
                "measurement circuits have no unitary check",
            )
        if not all(gate.qubits for gate in chain(gates_before, gates_after)):
            return Verdict.skip(
                "none", "a gate on no qubits has no unitary check"
            )
        rest_before, rest_after = tiers.strip_common_gates(
            gates_before, gates_after
        )
        tab_before = tiers.tableau_gates(rest_before)
        tab_after = tiers.tableau_gates(rest_after)
        if tab_before is not None and tab_after is not None:
            failure = tiers.clifford_equivalence_failure(
                tab_before, tab_after, n
            )
            if failure is not None:
                return Verdict.reject("stabilizer", failure)
            return Verdict.accept(
                "stabilizer",
                detail="composed tableau is the identity",
            )
        support = tiers.gate_support(rest_before + rest_after)
        if 0 < len(support) <= self.max_dense_qubits and len(support) < n:
            failure = self._dense_failure(
                tiers.compact_circuit(rest_before, support),
                tiers.compact_circuit(rest_after, support),
            )
            if failure is not None:
                return Verdict.reject("dense", failure)
            return Verdict.accept(
                "dense",
                detail=f"rewritten region on {len(support)} qubits",
            )
        if n <= self.max_dense_qubits:
            failure = self._dense_failure(before, after)
            if failure is not None:
                return Verdict.reject("dense", failure)
            return Verdict.accept("dense")
        return self._probe_verdict(
            n, n,
            lambda probe: (probe.copy().evolve(before),
                           probe.copy().evolve(after)),
            "the circuits ({})", "random product states",
        )

    @timed
    def check_extended_unitary(
        self,
        before: QuantumCircuit,
        after: QuantumCircuit,
        blocks: Optional[Sequence[int]] = None,
    ) -> Verdict:
        """Check a lowering that may have appended clean ancillae.

        The widened circuit must act as ``|psi>|0> -> (U|psi>)|0>``
        up to one global phase, with no leakage into the ancilla
        subspace.  A ``blocks`` certificate that validates settles the
        check block by block (see :meth:`_block_verdict`); otherwise
        equal widths delegate to :meth:`check_same_unitary`, and wider
        circuits use the dense block check at small widths and
        ancilla-aware fidelity probes otherwise.

        Args:
            before: the original circuit on ``n`` qubits.
            after: the lowered circuit on ``n`` or more qubits.
            blocks: optional certificate, the number of ``after``
                gates each ``before`` gate became.

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        if after.num_qubits < before.num_qubits:
            return Verdict.reject("dense", "pass narrowed the circuit")
        if blocks is not None:
            verdict = self._block_verdict(
                after.gates, blocks, before.gates, before.num_qubits,
                "extended",
            )
            if verdict is not None:
                return verdict
        if after.num_qubits == before.num_qubits:
            return self.check_same_unitary(before, after)
        if before.has_measurements() or after.has_measurements():
            return Verdict.skip(
                "none",
                "measurement circuits have no unitary check",
            )
        w = after.num_qubits
        # one more wire than the limit for the widening ancilla, but
        # never past what circuit_unitary builds
        if w <= min(self.max_dense_qubits + 1, MAX_UNITARY_QUBITS):
            failure = self._dense_extended_failure(before, after)
            if failure is not None:
                return Verdict.reject("dense", failure)
            return Verdict.accept("dense")
        return self._probe_verdict(
            w, before.num_qubits,
            lambda probe: (
                tiers.widen_state(probe.copy().evolve(before), w),
                tiers.widen_state(probe, w).evolve(after),
            ),
            "the lowered circuit ({}; a low overlap also witnesses "
            "ancilla leakage)",
            "ancilla-aware probes",
        )

    @timed
    def check_mapped_circuit(
        self,
        quantum: QuantumCircuit,
        reversible: ReversibleCircuit,
        blocks: Optional[Sequence[int]] = None,
    ) -> Verdict:
        """Check a mapped circuit against its reversible specification.

        The mapped circuit may use extra (clean) ancilla wires above
        the data wires; the obligation is
        ``|x>|0> -> e^{i phi(x)}|P(x)>|0>`` for every data input ``x``,
        with ``P`` the cascade's permutation.  Classical
        (Toffoli-level) circuits are checked exactly by the permutation
        tier at any wire count.  Clifford+T mappings with a ``blocks``
        certificate that validates are settled block by block (see
        :meth:`_block_verdict`); otherwise they use the dense column
        check at small widths and seeded basis-input probes up to
        ``DEFAULT_MAX_PROBE_QUBITS``.

        Args:
            quantum: the mapped (possibly Clifford+T) circuit.
            reversible: the MCT cascade it must implement.
            blocks: optional certificate, the number of ``quantum``
                gates each cascade gate became.

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        n = reversible.num_lines
        w = quantum.num_qubits
        if w < n:
            return Verdict.reject(
                "permutation",
                "mapped circuit is narrower than the cascade",
            )
        if n <= DEFAULT_MAX_TABLE_LINES and tiers.is_classical(quantum):
            apply = reversible.apply
            for x in range(1 << n):
                if tiers.apply_classical_gates(quantum, x) != apply(x):
                    return Verdict.reject(
                        "permutation", f"mismatch at input {x}", checks=x + 1
                    )
            return Verdict.accept("permutation", checks=1 << n)
        if blocks is not None:
            verdict = self._block_verdict(
                quantum.gates, blocks, reversible.gates, n, "mapped"
            )
            if verdict is not None:
                return verdict
        if quantum.has_measurements():
            return Verdict.skip(
                "none",
                "measurement circuits have no unitary check",
            )
        if n > DEFAULT_MAX_TABLE_LINES:
            return Verdict.skip(
                "permutation",
                f"{n} data lines exceed the {DEFAULT_MAX_TABLE_LINES}-line "
                "exhaustive-table limit",
            )
        if w <= min(self.max_dense_qubits + 1, MAX_UNITARY_QUBITS):
            failure = self._dense_mapped_failure(quantum, reversible)
            if failure is not None:
                return Verdict.reject("dense", failure)
            return Verdict.accept("dense", checks=1 << n)
        if w > DEFAULT_MAX_PROBE_QUBITS:
            return Verdict.skip(
                "probes",
                f"width {w} exceeds the {DEFAULT_MAX_PROBE_QUBITS}-qubit "
                "probe limit",
            )
        rng = np.random.default_rng(DEFAULT_SEED)
        count = min(DEFAULT_PROBES, 1 << n)
        inputs = sorted(
            int(x)
            for x in rng.choice(1 << n, size=count, replace=False)
        )
        for i, x in enumerate(inputs):
            state = Statevector.from_basis_state(w, x)
            state.evolve(quantum)
            prob = float(abs(state.data[reversible.apply(x)]) ** 2)
            if abs(prob - 1.0) > self.atol:
                return Verdict.reject(
                    "probes",
                    f"basis input {x} does not map to the cascade's "
                    f"output (probability {prob:.6f})",
                    checks=i + 1,
                )
        return Verdict.accept(
            "probes",
            detail=f"{len(inputs)} sampled basis inputs agree",
            checks=len(inputs),
        )

    @timed
    def check_routing(self, original: QuantumCircuit, routing) -> Verdict:
        """Check a routed circuit against the pre-routing original.

        Exact at any width (tier ``swap``): the routed gates must be
        the original ones, measurements and resets included, on wires
        plain ``swap`` gates relabel (:func:`~.tiers.swap_relabel_failure`),
        ending at ``routing.position_of`` with ``final_layout`` its
        first ``n`` entries, over the original's classical register.
        Anything else is rejected, with no other tier to fall back on:
        the router emits only this form.

        Args:
            original: the circuit entering the routing pass.
            routing: the :class:`~repro.mapping.routing.RoutingResult`.

        Returns:
            The tier :class:`~.verdict.Verdict`.
        """
        if routing is None:
            return Verdict.reject("swap", "routing produced no result")
        routed = routing.circuit
        n = original.num_qubits
        if (
            routed.num_qubits < n
            or len(routing.position_of) != routed.num_qubits
            or routed.num_clbits != original.num_clbits
        ):
            return Verdict.reject(
                "swap", "routed circuit does not fit the original's registers"
            )
        failure = tiers.swap_relabel_failure(
            original.gates, routed.gates, routing.position_of
        )
        if failure is None and (
            tuple(routing.final_layout) != tuple(routing.position_of[:n])
        ):
            failure = (
                f"final layout {routing.final_layout} is not where the "
                "swaps leave the logical qubits"
            )
        if failure is not None:
            return Verdict.reject("swap", failure)
        return Verdict.accept("swap", detail=f"{len(routed)} gates replayed")

    # ------------------------------------------------------------------
    # probe tier
    # ------------------------------------------------------------------
    def _probe_verdict(
        self,
        width: int,
        probe_width: int,
        outputs: Callable[[Statevector], Tuple[Statevector, Statevector]],
        subject: str,
        agreeing: str,
    ) -> Verdict:
        """Run the randomized fidelity-probe tier.

        Draws ``DEFAULT_PROBES`` seeded random product states on
        ``probe_width`` qubits; ``outputs`` maps each to the expected
        and the actual output state, and every pair must agree up to a
        global phase.

        Args:
            width: register width the tier simulates; wider than
                ``DEFAULT_MAX_PROBE_QUBITS`` is an explicit skip.
            probe_width: width of the drawn probe states.
            outputs: the expected and actual state of one probe.
            subject: what a failing probe distinguishes, with ``{}``
                where the overlap goes.
            agreeing: what the accepting detail calls the probes.

        Returns:
            The ``probes`` tier :class:`~.verdict.Verdict`.
        """
        if width > DEFAULT_MAX_PROBE_QUBITS:
            return Verdict.skip(
                "probes",
                f"width {width} exceeds the {DEFAULT_MAX_PROBE_QUBITS}-qubit "
                "probe limit",
            )
        rng = np.random.default_rng(DEFAULT_SEED)
        for i in range(DEFAULT_PROBES):
            expected, actual = outputs(
                tiers.random_product_state(probe_width, rng)
            )
            overlap = tiers.overlap_magnitude(expected, actual)
            if abs(overlap - 1.0) > self.atol:
                return Verdict.reject(
                    "probes",
                    f"probe {i} distinguishes "
                    + subject.format(f"|overlap| = {overlap:.6f}"),
                    checks=i + 1,
                )
        return Verdict.accept(
            "probes",
            detail=f"{DEFAULT_PROBES} {agreeing} agree",
            checks=DEFAULT_PROBES,
        )

    # ------------------------------------------------------------------
    # block tier
    # ------------------------------------------------------------------
    def _block_verdict(
        self,
        gates: Sequence,
        blocks: Sequence[int],
        sources: Sequence,
        num_data: int,
        obligation: str,
    ) -> Optional[Verdict]:
        """Validate a lowering's block certificate, block by block.

        ``blocks[i]`` consecutive ``gates`` claim to stand for
        ``sources[i]``: a cascade :class:`MctGate` under the
        per-input-phase obligation (``"mapped"``) or a circuit gate
        under the one-global-phase, no-leakage one (``"extended"``).
        The blocks must tile ``gates``; each is relabelled onto its
        local wires (:func:`~.tiers.relabel_block`) and checked densely
        against a reference built here from its source gate, once per
        distinct local block (:func:`_local_block_failure`).  A block
        may touch its source gate's wires and ancilla wires at or above
        ``num_data``; the ancillae must start and end at ``|0>``, so
        they are clean between blocks by induction.  A one-gate block
        equal to its circuit source gate (pass-through gates,
        measurements, resets, barriers) needs no simulation.

        Returns:
            A ``passed`` verdict, or ``None`` — the caller falls
            through to the whole-circuit tiers — when the tiling is
            wrong, a block touches another data wire, is wider than
            ``max_dense_qubits`` or holds a non-unitary gate, or a
            block fails.  The tier never rejects on its own.
        """
        if (
            len(blocks) != len(sources)
            or any(type(length) is not int or length < 1 for length in blocks)
            or sum(blocks) != len(gates)
        ):
            return None
        mapped = obligation == "mapped"
        keys = set()
        widest = 0
        start = 0
        for source, length in zip(sources, blocks):
            block = gates[start:start + length]
            start += length
            if mapped:
                own = source.controls + (source.target,)
            elif length == 1 and block[0] == source:
                continue
            elif not source.is_unitary:
                return None
            else:
                own = source.qubits
            if any(wire >= num_data for wire in own):
                return None
            relabelled = tiers.relabel_block(block, own, num_data)
            if relabelled is None:
                return None
            local, clean = relabelled
            width = len(own) + clean
            if width > self.max_dense_qubits:
                return None
            if mapped:
                reference = source.polarity
            else:
                reference = tiers.relabel_block((source,), own, num_data)[0][0]
            key = (local, reference, clean, obligation, self.atol)
            if _local_block_failure(*key) is not None:
                return None
            keys.add(key)
            widest = max(widest, width)
        if not keys:
            return Verdict.accept(
                "syntactic",
                detail=f"{len(blocks)} blocks, each its source gate",
            )
        return Verdict.accept(
            "dense",
            detail=(
                f"{len(blocks)} blocks, {len(keys)} distinct, "
                f"<= {widest} wires"
            ),
        )

    # ------------------------------------------------------------------
    # rewrite tier
    # ------------------------------------------------------------------
    def _rewrite_verdict(
        self, before: QuantumCircuit, after: QuantumCircuit, groups: Sequence
    ) -> Optional[Verdict]:
        """Validate a gate-cancellation certificate, group by group.

        :func:`~.tiers.rewrite_groups` checks the certificate's claims
        on the gate lists (members, fences, nesting, the output).  Every
        member and the reference then sit on exactly the reference's
        ``k`` qubits, so the local gates of a group are its gates on
        wires ``0..k-1``; each is checked densely against its fused
        gate, or the identity for a group fused into nothing, once per
        distinct local group (:func:`_local_block_failure`).

        Returns:
            A ``passed`` verdict, or ``None`` — the caller falls
            through to the whole-circuit tiers — when a claim fails, a
            group is wider than ``max_dense_qubits``, or a group does
            not multiply to its reference.  The tier never rejects on
            its own.
        """
        blocks = tiers.rewrite_groups(before.gates, after.gates, groups)
        if blocks is None:
            return None
        keys = set()
        for members, reference in blocks:
            k = len(reference.qubits)
            if k > self.max_dense_qubits:
                return None
            wires = tuple(range(k))
            key = (
                tuple([
                    (gate.name, wires, len(gate.controls), gate.params)
                    for gate in members
                ]),
                (reference.name, wires, len(reference.controls),
                 reference.params),
                0, "extended", self.atol,
            )
            if _local_block_failure(*key) is not None:
                return None
            keys.add(key)
        return Verdict.accept(
            "dense",
            detail=f"rewrite: {len(blocks)} groups, {len(keys)} distinct",
        )

    # ------------------------------------------------------------------
    # dense primitives
    # ------------------------------------------------------------------
    def _dense_failure(
        self, before: QuantumCircuit, after: QuantumCircuit
    ) -> Optional[str]:
        """Compare two equal-width circuits' dense unitaries."""
        from ..core.unitary import circuit_unitary

        u_before = circuit_unitary(before)
        u_after = circuit_unitary(after)
        return _phase_compare_failure(u_before, u_after, self.atol)

    def _dense_extended_failure(
        self, before: QuantumCircuit, after: QuantumCircuit
    ) -> Optional[str]:
        """Dense block check of an ancilla-widened lowering."""
        from ..core.unitary import circuit_unitary

        u_before = circuit_unitary(before)
        u_after = circuit_unitary(after)
        dim = 1 << before.num_qubits
        if np.abs(u_after[dim:, :dim]).max(initial=0.0) > self.atol:
            return "lowered circuit leaks into the ancilla subspace"
        return _phase_compare_failure(
            u_before, u_after[:dim, :dim], self.atol
        )

    def _dense_mapped_failure(
        self, quantum: QuantumCircuit, reversible: ReversibleCircuit
    ) -> Optional[str]:
        """Dense per-column check of a mapped circuit."""
        from ..core.unitary import circuit_unitary

        unitary = circuit_unitary(quantum)
        for x in range(1 << reversible.num_lines):
            column = unitary[:, x]
            index = int(np.argmax(np.abs(column)))
            if (
                abs(abs(column[index]) - 1.0) > self.atol
                or np.abs(column).sum() - abs(column[index]) > self.atol
                or index != reversible.apply(x)
            ):
                return f"mismatch at input {x}"
        return None


def _phase_compare_failure(u_before, u_after, atol: float) -> Optional[str]:
    """Compare two equal-shape matrices up to one global phase."""
    overlap = u_after.conj().T @ u_before
    phase = overlap[np.unravel_index(np.argmax(np.abs(overlap)), overlap.shape)]
    if abs(abs(phase) - 1.0) > atol:
        return "pass changed the circuit unitary"
    if not np.allclose(u_before, phase * u_after, atol=atol):
        return "pass changed the circuit unitary"
    return None


@lru_cache(maxsize=_BLOCK_MEMO_SIZE)
def _local_block_failure(
    local: Tuple[tiers.LocalGate, ...],
    reference,
    clean: int,
    obligation: str,
    atol: float,
) -> Optional[str]:
    """Dense check of one relabelled block against its local reference.

    The local wires are the reference's own wires, then ``clean``
    ancillae.  ``reference`` is the
    polarity of a cascade gate whose controls are the first wires and
    whose target follows them (``obligation="mapped"``), or a
    relabelled circuit gate (``"extended"``).

    Returns:
        ``None`` when the block meets the obligation, else why not.
    """
    if any(name in NON_UNITARY for name, _, _, _ in local):
        return "block holds a non-unitary gate"
    checker = EquivalenceChecker(atol=atol)
    if obligation == "mapped":
        k = len(reference)
        data = k + 1
        cascade = ReversibleCircuit(data)
        cascade.append(MctGate(k, tuple(range(k)), reference))
        return checker._dense_mapped_failure(
            tiers.local_circuit(local, data + clean), cascade
        )
    data = len(reference[1])
    return checker._dense_extended_failure(
        tiers.local_circuit((reference,), data),
        tiers.local_circuit(local, data + clean),
    )


# ----------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------
_DEFAULT_CHECKER = EquivalenceChecker()


def default_checker() -> EquivalenceChecker:
    """Return the shared default (``auto`` mode) checker instance."""
    return _DEFAULT_CHECKER


def as_checker(
    spec: Union[EquivalenceChecker, str, bool, None]
) -> Optional[EquivalenceChecker]:
    """Resolve a ``verify=`` argument to a checker (or ``None``).

    Args:
        spec: ``None``/``False``/``"off"`` disable verification;
            ``True``/``"auto"`` select the default tiered checker;
            ``"strict"`` additionally escalates skipped checks to
            failures; an :class:`EquivalenceChecker` passes through.

    Returns:
        The resolved checker, or ``None`` when verification is off.

    Raises:
        ValueError: for unrecognized mode strings.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return _DEFAULT_CHECKER
    if isinstance(spec, EquivalenceChecker):
        return spec
    if isinstance(spec, str):
        mode = spec.lower()
        if mode == "off":
            return None
        if mode == "auto":
            return _DEFAULT_CHECKER
        if mode == "strict":
            return replace(_DEFAULT_CHECKER, mode="strict")
        raise ValueError(
            f"unknown verification mode {spec!r}; one of "
            f"{', '.join(MODES)} (or an EquivalenceChecker)"
        )
    raise ValueError(
        f"verify= accepts a bool, {', '.join(MODES)!s}, or an "
        f"EquivalenceChecker, not {type(spec).__name__}"
    )
