"""Tier selection, explicit skips, strict mode, and the checker settings.

Covers the tiered :class:`repro.verify.EquivalenceChecker` unit by
unit — which tier runs for which circuit pair, that rejections name
the witnessing input, that skipped checks are always explicit (the
silent-skip regression), strict-mode escalation, and the end-to-end
``repro.compile(..., verify=...)`` surface including a 16-qubit
Sec. VII device-shaped flow where no dense unitary is feasible.
"""

import dataclasses

import pytest

from repro.boolean.permutation import BitPermutation
from repro.compiler import compile as compile_workload
from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import (
    CouplingMap,
    RoutingResult,
    route_circuit,
    verify_routing,
)
from repro.pipeline import (
    FlowState,
    Pipeline,
    PipelineError,
    RoutePass,
    SimplifyPass,
    SynthesisPass,
    VerificationError,
)
from repro.revkit import generators
from repro.synthesis.reversible import ReversibleCircuit
from repro.verify import (
    DEFAULT_PROBES,
    EquivalenceChecker,
    Verdict,
    as_checker,
)


def clifford_pair(n=14):
    """Two equivalent Clifford circuits too wide for dense unitaries."""
    a = QuantumCircuit(n)
    for q in range(n):
        a.h(q)
    for q in range(n - 1):
        a.cx(q, q + 1)
    b = a.copy()
    # S then S' is the identity: semantically equal, syntactically not
    b.s(0)
    b.sdg(0)
    return a, b


class TestTierSelection:
    def test_syntactic_tier_for_identical_circuits(self):
        a = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        b = a.copy()
        b.barrier()  # no-ops are ignored by the comparison
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "syntactic"

    def test_permutation_tier_enumerates_all_inputs(self):
        a = ReversibleCircuit(3).toffoli(0, 1, 2).cnot(0, 1)
        b = ReversibleCircuit(3).toffoli(0, 1, 2).cnot(0, 1)
        verdict = EquivalenceChecker().check_same_permutation(a, b)
        assert verdict.passed and verdict.tier == "permutation"
        assert verdict.checks == 8

    def test_permutation_tier_names_the_witness_input(self):
        a = ReversibleCircuit(2).cnot(0, 1)
        b = ReversibleCircuit(2).cnot(1, 0)
        verdict = EquivalenceChecker().check_same_permutation(a, b)
        assert verdict.failed and verdict.tier == "permutation"
        assert "input" in verdict.detail

    def test_stabilizer_tier_beyond_dense_widths(self):
        a, b = clifford_pair(14)
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "stabilizer"

    def test_stabilizer_tier_rejects_exactly(self):
        a, b = clifford_pair(14)
        b.s(3)  # a single stray phase gate, invisible to magnitudes
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.failed and verdict.tier == "stabilizer"
        assert "generator" in verdict.detail

    def test_stabilizer_tier_translates_quarter_turn_rotations(self):
        import math

        a = QuantumCircuit(12).h(0).s(0)
        b = QuantumCircuit(12).h(0).rz(math.pi / 2, 0)
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "stabilizer"

    def test_dense_tier_on_narrow_rewrite_support(self):
        import math

        n = 13
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        for q in range(n):
            a.h(q)
            b.h(q)
        a.t(0)
        b.rz(math.pi / 4, 0)  # equal up to global phase, not Clifford
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "dense"
        assert "1 qubits" in verdict.detail

    def test_dense_tier_small_width_oracle(self):
        a = QuantumCircuit(2).h(0).t(0).h(0)
        b = QuantumCircuit(2).h(0).tdg(0).h(0)
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.failed and verdict.tier == "dense"

    def test_probe_tier_when_dense_is_infeasible(self):
        n = 12
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        for q in range(n):
            a.h(q)
            a.t(q)
            b.t(q)
            b.h(q)  # reordered: genuinely different unitary
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.failed and verdict.tier == "probes"
        assert "probe" in verdict.detail

    def test_probe_tier_accepts_equivalent_wide_circuits(self):
        n = 12
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        # T.T = S exactly, so the circuits agree — but the remainders
        # after stripping keep a non-Clifford gate on every qubit, so
        # the rewritten support spans the register and neither the
        # stabilizer nor the (capped) dense tier applies
        for q in range(n):
            a.h(q)
            a.t(q)
            a.t(q)
            b.h(q)
            b.s(q)
        checker = dataclasses.replace(EquivalenceChecker(), max_dense_qubits=4)
        verdict = checker.check_same_unitary(a, b)
        assert verdict.passed and verdict.tier == "probes"
        assert verdict.checks == DEFAULT_PROBES

    def test_probes_are_seeded_and_reproducible(self):
        n = 12
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        for q in range(n):
            a.h(q)
            a.t(q)
            b.t(q)
            b.h(q)
        first = EquivalenceChecker().check_same_unitary(a, b)
        second = EquivalenceChecker().check_same_unitary(a, b)
        assert (first.status, first.tier, first.detail, first.checks) == (
            second.status, second.tier, second.detail, second.checks
        )

    def test_width_change_is_a_rejection_not_a_crash(self):
        verdict = EquivalenceChecker().check_same_unitary(
            QuantumCircuit(2).h(0), QuantumCircuit(3).h(0)
        )
        assert verdict.failed and "width" in verdict.detail


class TestExplicitSkips:
    def test_beyond_probe_limit_is_skipped_not_passed(self):
        n = 22
        a = QuantumCircuit(n)
        b = QuantumCircuit(n)
        for q in range(n):
            a.t(q)
            a.h(q)
            b.h(q)
            b.t(q)
        verdict = EquivalenceChecker().check_same_unitary(a, b)
        assert verdict.skipped and not verdict.passed
        assert verdict.tier == "probes"
        assert "22" in verdict.detail

    def test_mapped_check_reports_skip_distinctly(self):
        """Regression: the old mapped-circuit helper returned None both
        for passed and for skipped-above-the-width-limit."""
        rev = ReversibleCircuit(18)
        for q in range(17):
            rev.cnot(q, q + 1)
        quantum = rev.to_quantum_circuit()
        verdict = EquivalenceChecker().check_mapped_circuit(quantum, rev)
        assert isinstance(verdict, Verdict)
        # 18 data lines exceed the exhaustive-table limit, but the
        # outcome is an explicit skip, never a silent pass
        assert verdict.skipped and not verdict.passed

    def test_non_permutation_specification_skips_explicitly(self):
        rev = ReversibleCircuit(3).cnot(0, 1)
        verdict = EquivalenceChecker().check_specification(rev, object())
        assert verdict.skipped and verdict.tier == "none"

    def test_pipeline_never_reports_verified_for_skipped_pass(self):
        """The verified flag must be False when any check skipped."""
        n = 22
        wide = QuantumCircuit(n)
        for q in range(n):
            wide.t(q)
            wide.h(q)

        class WidePass(SimplifyPass):
            name = "wide-rewrite"
            reads = ("quantum",)
            writes = ("quantum",)

            def run(self, state):
                out = state.copy()
                rewritten = QuantumCircuit(n)
                for q in range(n):
                    rewritten.h(q)
                    rewritten.t(q)
                out.quantum = rewritten
                return out

            def _tiered_check(self, checker, before, after):
                return checker.check_same_unitary(
                    before.quantum, after.quantum
                )

        pipeline = Pipeline(verify="auto", cache=None)
        state, record = pipeline.apply(WidePass(), FlowState(quantum=wide))
        assert record.verification is not None
        assert record.verification.skipped
        from repro.pipeline.runner import PipelineResult

        assert not PipelineResult(state=state, records=[record]).verified

    def test_skipped_check_never_marks_cache_entry_verified(self):
        """A skipped check must stay re-checkable on later replays."""
        from repro.pipeline import PassCache

        n = 22
        wide = QuantumCircuit(n)
        for q in range(n):
            wide.t(q)
            wide.h(q)

        class WidePass(SimplifyPass):
            name = "wide-rewrite"
            reads = ("quantum",)
            writes = ("quantum",)

            def run(self, state):
                out = state.copy()
                rewritten = QuantumCircuit(n)
                for q in range(n):
                    rewritten.h(q)
                    rewritten.t(q)
                out.quantum = rewritten
                return out

            def _tiered_check(self, checker, before, after):
                return checker.check_same_unitary(
                    before.quantum, after.quantum
                )

        cache = PassCache()
        pipeline = Pipeline(verify="auto", cache=cache)
        pipeline.apply(WidePass(), FlowState(quantum=wide))
        _, record = pipeline.apply(WidePass(), FlowState(quantum=wide))
        assert record.cache_hit
        # the replay re-ran the (skipping) check instead of trusting a
        # verified flag the skip must never have set
        assert record.verification.skipped
        assert record.verification.tier != "cache"


class TestStrictMode:
    def test_strict_escalates_skips_to_errors(self):
        n = 22
        wide = QuantumCircuit(n)
        for q in range(n):
            wide.t(q)
            wide.h(q)

        class WidePass(SimplifyPass):
            name = "wide-rewrite"
            reads = ("quantum",)
            writes = ("quantum",)

            def run(self, state):
                out = state.copy()
                rewritten = QuantumCircuit(n)
                for q in range(n):
                    rewritten.h(q)
                    rewritten.t(q)
                out.quantum = rewritten
                return out

            def _tiered_check(self, checker, before, after):
                return checker.check_same_unitary(
                    before.quantum, after.quantum
                )

        with pytest.raises(VerificationError, match="strict"):
            Pipeline(verify="strict", cache=None).apply(
                WidePass(), FlowState(quantum=wide)
            )

    def test_auto_tolerates_the_same_skip(self):
        n = 22
        wide = QuantumCircuit(n)
        for q in range(n):
            wide.t(q)
            wide.h(q)

        class WidePass(SimplifyPass):
            name = "wide-rewrite"
            reads = ("quantum",)
            writes = ("quantum",)

            def run(self, state):
                out = state.copy()
                rewritten = QuantumCircuit(n)
                for q in range(n):
                    rewritten.h(q)
                    rewritten.t(q)
                out.quantum = rewritten
                return out

            def _tiered_check(self, checker, before, after):
                return checker.check_same_unitary(
                    before.quantum, after.quantum
                )

        _, record = Pipeline(verify="auto", cache=None).apply(
            WidePass(), FlowState(quantum=wide)
        )
        assert record.verification.skipped


class TestCheckerResolution:
    def test_as_checker_modes(self):
        assert as_checker(None) is None
        assert as_checker(False) is None
        assert as_checker("off") is None
        assert as_checker(True).mode == "auto"
        assert as_checker("auto").mode == "auto"
        assert as_checker("strict").strict
        custom = EquivalenceChecker(max_dense_qubits=4, atol=1e-9)
        assert as_checker(custom) is custom

    def test_as_checker_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="paranoid"):
            as_checker("paranoid")
        with pytest.raises(ValueError):
            as_checker(3.14)

    def test_checker_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            EquivalenceChecker(mode="bogus")

    @pytest.mark.parametrize(
        "width", [-1, 13, 64, True, False, 4.0, "10", None], ids=repr
    )
    def test_checker_refuses_a_bad_dense_width(self, width):
        with pytest.raises(ValueError, match=f"max_dense_qubits.*{width!r}"):
            EquivalenceChecker(max_dense_qubits=width)

    @pytest.mark.parametrize(
        "atol",
        [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12, True,
         "1e-7", None],
        ids=repr,
    )
    def test_checker_refuses_a_bad_tolerance(self, atol):
        # a NaN or negative atol made every dense comparison fail, so
        # equivalent circuits were rejected
        with pytest.raises(ValueError, match="atol"):
            EquivalenceChecker(atol=atol)

    def test_dense_width_and_tolerance_at_their_limits(self):
        for width in (0, 12):
            assert EquivalenceChecker(max_dense_qubits=width)
        assert EquivalenceChecker(atol=0).atol == 0
        # dataclasses.replace re-runs the validation
        with pytest.raises(ValueError, match="max_dense_qubits"):
            dataclasses.replace(EquivalenceChecker(), max_dense_qubits=13)

    def test_widest_dense_setting_never_builds_a_13_qubit_unitary(self):
        # the ancilla-widened rungs allow one wire past the setting,
        # but not past the 12-qubit cap of circuit_unitary
        from repro.mapping.barenco import map_to_clifford_t

        source = QuantumCircuit(12).h(0).mcx([0, 1, 2], 11)
        lowered = map_to_clifford_t(source)
        assert lowered.num_qubits == 13
        verdict = EquivalenceChecker(
            max_dense_qubits=12
        ).check_extended_unitary(source, lowered)
        assert (verdict.status, verdict.tier) == ("passed", "probes")

    def test_target_validates_verify_field(self):
        from repro.compiler import Target

        with pytest.raises(PipelineError):
            Target(name="t", verify="bogus")
        assert Target(name="t", verify="strict").verify == "strict"

    def test_checker_has_three_settings(self):
        fields = [f.name for f in dataclasses.fields(EquivalenceChecker)]
        assert fields == ["mode", "max_dense_qubits", "atol"]


class TestSpecificationCheck:
    """A synthesized cascade is checked against its permutation."""

    def test_records_the_permutation_tier(self):
        _, record = Pipeline(verify="auto", cache=None).apply(
            SynthesisPass("tbs"), FlowState(function=generators.hwb(4))
        )
        verdict = record.verification
        assert verdict.passed and verdict.tier == "permutation"
        assert verdict.checks == 16

    def test_rejects_a_broken_cascade(self):
        class Broken(SynthesisPass):
            def run(self, state):
                out = super().run(state)
                pruned = ReversibleCircuit(out.reversible.num_lines)
                pruned.extend(out.reversible.gates[:-1])
                out.reversible = pruned
                return out

        with pytest.raises(VerificationError, match="tier permutation"):
            Pipeline(verify="auto", cache=None).apply(
                Broken("tbs"), FlowState(function=generators.hwb(4))
            )


class TestCompileFacade:
    def test_compile_verify_auto_records_every_tier(self, tmp_path):
        result = compile_workload(
            {"hwb": 4}, verify="auto", cache=None
        )
        assert result.verified
        assert all(
            record.verification is not None for record in result.records
        )
        report = result.verification_report()
        assert "tier" in report

    def test_compile_verify_off_by_default(self):
        result = compile_workload({"hwb": 4}, cache=None)
        assert not result.verified
        assert all(
            record.verification is None for record in result.records
        )
        assert "unverified" in result.verification_report()

    def test_target_verify_field_applies_when_arg_omitted(self):
        from repro.compiler import Target, targets

        target = targets.CLIFFORD_T.with_(verify="auto")
        assert isinstance(target, Target)
        result = compile_workload({"hwb": 4}, target=target, cache=None)
        assert result.verified

    def test_explicit_arg_overrides_target_field(self):
        from repro.compiler import targets

        target = targets.CLIFFORD_T.with_(verify="auto")
        result = compile_workload(
            {"hwb": 4}, target=target, verify="off", cache=None
        )
        assert not result.verified

    def test_sixteen_qubit_device_flow_verifies_end_to_end(self):
        """The acceptance bar: a 16-qubit device-shaped compile under
        verify='auto' where dense unitaries are impossible, with every
        pass record naming the tier that vouched for it."""
        n = 16
        circuit = QuantumCircuit(n)
        for q in range(n):
            circuit.h(q)
        for q in range(0, n - 1, 2):
            circuit.cz(q, q + 1)
        circuit.ccz(0, 1, 2)
        circuit.ccz(5, 6, 7)
        for q in range(n):
            circuit.h(q)
        from repro.compiler import Target

        target = Target(name="line16", coupling=CouplingMap.line(n))
        result = compile_workload(
            circuit, target=target, verify="auto", cache=None
        )
        assert result.verified
        tiers_used = {
            record.name: record.verification.tier
            for record in result.records
        }
        assert set(tiers_used) == {"cancel", "rptm", "tpar", "route"}
        for name, tier in tiers_used.items():
            assert tier in (
                "syntactic", "permutation", "stabilizer", "swap", "dense",
                "probes",
            ), f"pass {name} has no tier"
        # no dense-unitary oracle exists at this width: routing is
        # vouched for by the exact SWAP-relabelling tier
        assert tiers_used["route"] == "swap"
        report = result.verification_report()
        for name in tiers_used:
            assert name in report

    def test_verification_failure_names_pass_and_tier(self):
        perm = BitPermutation([0, 2, 1, 3])

        class Broken(SimplifyPass):
            name = "broken-simp"

            def run(self, state):
                out = state.copy()
                pruned = ReversibleCircuit(state.reversible.num_lines)
                pruned.extend(state.reversible.gates[:-1])
                out.reversible = pruned
                return out

        state = SynthesisPass("tbs").run(FlowState(function=perm))
        with pytest.raises(
            VerificationError,
            match=r"'broken-simp'.*tier permutation",
        ):
            Pipeline(verify="auto", cache=None).apply(Broken(), state)


class TestRoutingWithReset:
    """A reset is a gate like any other to the SWAP-relabelling check."""

    @staticmethod
    def measured_reset_circuit():
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).reset(1).cx(0, 1).measure(0, 0).measure(1, 1)
        return circuit

    def test_compile_verifies_the_route_check(self):
        result = compile_workload(
            self.measured_reset_circuit(), target="ibm_qe5",
            verify="auto", cache=None,
        )
        verdicts = {r.name: r.verification for r in result.records}
        route = verdicts["route"]
        assert (route.status, route.tier) == ("passed", "swap")
        assert result.verified

    def test_verify_routing_passes(self):
        circuit = self.measured_reset_circuit()
        routed = route_circuit(circuit, CouplingMap.line(3))
        assert verify_routing(circuit, routed) is True
        verdict = EquivalenceChecker().check_routing(circuit, routed)
        assert (verdict.status, verdict.tier) == ("passed", "swap")

    def test_reset_added_by_the_router_is_not_passed(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        routed = route_circuit(circuit, CouplingMap.line(2))
        tampered = routed.circuit.copy().reset(1)
        forged = RoutingResult(
            tampered, routed.final_layout, routed.swap_count,
            routed.position_of,
        )
        assert verify_routing(circuit, routed)
        assert not verify_routing(circuit, forged)
        verdict = EquivalenceChecker().check_routing(circuit, forged)
        assert (verdict.status, verdict.tier) == ("failed", "swap")
        assert verdict.detail.startswith("routed gate 2 (Gate(name='reset'")


class TestRoutingMeasurements:
    """The routing check compares measurements, cbits included."""

    @staticmethod
    def measured_circuit():
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).cx(0, 2).x(1)
        for q in range(3):
            circuit.measure(q, q)
        return circuit

    @staticmethod
    def forge(routed, gates):
        circuit = routed.circuit.copy()
        circuit.gates = gates
        return dataclasses.replace(routed, circuit=circuit)

    def routed(self):
        circuit = self.measured_circuit()
        routed = route_circuit(circuit, CouplingMap.line(3))
        assert routed.swap_count > 0
        return circuit, routed

    def test_unforged_routing_passes(self):
        circuit, routed = self.routed()
        assert verify_routing(circuit, routed)
        verdict = EquivalenceChecker().check_routing(circuit, routed)
        assert (verdict.status, verdict.tier) == ("passed", "swap")

    def test_swapped_cbits_are_refused(self):
        circuit, routed = self.routed()
        gates = list(routed.circuit.gates)
        first, second = [
            i for i, gate in enumerate(gates) if gate.is_measurement
        ][:2]
        gates[first], gates[second] = (
            dataclasses.replace(gates[first], cbits=gates[second].cbits),
            dataclasses.replace(gates[second], cbits=gates[first].cbits),
        )
        forged = self.forge(routed, gates)
        assert not verify_routing(circuit, forged)
        verdict = EquivalenceChecker().check_routing(circuit, forged)
        assert (verdict.status, verdict.tier) == ("failed", "swap")
        assert verdict.detail.startswith(f"routed gate {first} ")

    def test_dropped_measurements_are_refused(self):
        circuit, routed = self.routed()
        gates = [g for g in routed.circuit.gates if not g.is_measurement]
        forged = self.forge(routed, gates)
        assert not verify_routing(circuit, forged)
        verdict = EquivalenceChecker().check_routing(circuit, forged)
        assert (verdict.status, verdict.tier) == ("failed", "swap")
        assert "ends after" in verdict.detail

    def test_forged_layouts_are_refused(self):
        circuit, routed = self.routed()
        moved = tuple(reversed(routed.position_of))
        for forged in (
            dataclasses.replace(routed, position_of=moved),
            dataclasses.replace(routed, final_layout=(0, 1, 2)),
            dataclasses.replace(routed, position_of=()),
        ):
            verdict = EquivalenceChecker().check_routing(circuit, forged)
            assert (verdict.status, verdict.tier) == ("failed", "swap")

    def test_original_swap_stays_a_gate(self):
        circuit = QuantumCircuit(3).swap(0, 2).cx(0, 1)
        routed = route_circuit(circuit, CouplingMap.line(3))
        assert routed.swap_count == 1
        assert verify_routing(circuit, routed)

    def test_quantum_skewed_route_pass_is_refused(self):
        class Skewed(RoutePass):
            def run(self, state):
                out = super().run(state)
                out.quantum = out.quantum.copy().x(0)
                return out

        state = FlowState(quantum=self.measured_circuit())
        with pytest.raises(
            VerificationError, match=r"'route'.*tier swap"
        ):
            Pipeline(verify="auto", cache=None).apply(
                Skewed(CouplingMap.line(3)), state
            )


class TestVerifyRoutingWidths:
    """``verify_routing`` is exact at any device width."""

    @staticmethod
    def spread_circuit(n):
        circuit = QuantumCircuit(n)
        for q in range(n):
            circuit.h(q).t(q)
        circuit.cx(0, n - 1).cx(n // 2, 1).t(1).cx(n - 1, n // 2)
        return circuit

    @pytest.mark.parametrize("n", (5, 6, 13, 24))
    def test_line_devices_verify_exactly(self, n):
        circuit = self.spread_circuit(n)
        routed = route_circuit(circuit, CouplingMap.line(n))
        assert routed.swap_count > 0
        assert verify_routing(circuit, routed) is True
        verdict = EquivalenceChecker().check_routing(circuit, routed)
        assert (verdict.status, verdict.tier) == ("passed", "swap")

    @pytest.mark.parametrize("n", (13, 24))
    def test_corrupted_wide_routing_is_refused(self, n):
        circuit = self.spread_circuit(n)
        routed = route_circuit(circuit, CouplingMap.line(n))
        forged = RoutingResult(
            routed.circuit.copy().t(0), routed.final_layout,
            routed.swap_count, routed.position_of,
        )
        assert verify_routing(circuit, forged) is False
