"""Certificates come from the run that made the output.

A verifying pipeline runs ``cancel`` and ``rptm`` through
:meth:`~repro.pipeline.passes.Pass.run_certified`: the fused groups and
the block lengths their check validates are logged by the same loop
that built the output, never by a second run inside the check.  These
tests pin that:

* a verified run executes each pass's loop exactly once;
* an unverified run logs nothing, carries no certificate, and keys the
  cache as before;
* a verified replay of an entry that was never verified re-derives the
  certificate and gets the verdict a cold verified run gets;
* a forged certificate in the slot falls through and never decides the
  verdict;
* no result or cache entry keeps a certificate.
"""

import re

import pytest

import repro
from repro.core.circuit import QuantumCircuit
from repro.mapping import barenco
from repro.optimization import simplify
from repro.pipeline import (
    CancelPass,
    FlowState,
    MapToCliffordTPass,
    PassCache,
    Pipeline,
    SynthesisPass,
)
from repro.pipeline.state import FIELDS
from repro.revkit import generators
from repro.verify import EquivalenceChecker

CHECKER = EquivalenceChecker()

#: the verdict details of the two certificate tiers
REWRITE_DETAIL = re.compile(r"^rewrite: \d+ groups, \d+ distinct$")
BLOCK_DETAIL = re.compile(r"^\d+ blocks, \d+ distinct, <= \d+ wires$")

#: the paper's Fig. 10 permutation
PAPER_PI = [0, 2, 3, 5, 7, 1, 4, 6]


def cancel_input():
    """A circuit with an inverse pair, a merge and a kept gate."""
    return (
        QuantumCircuit(3).h(0).h(0).t(1).cx(0, 2).tdg(1)
        .rz(0.25, 2).rz(0.5, 2)
    )


def rptm_input():
    """The tbs cascade of hwb(3), the store ``rptm`` maps."""
    return SynthesisPass("tbs").run(FlowState(function=generators.hwb(3)))


@pytest.fixture
def calls(monkeypatch):
    """Record the ``trail`` argument of every ``_frontier`` call and
    count the ``_lower`` calls."""
    seen = {"trails": [], "lower": 0}
    frontier, lower = simplify._frontier, barenco._lower

    def recording_frontier(gates, trail):
        seen["trails"].append(trail)
        return frontier(gates, trail)

    def counting_lower(*args):
        seen["lower"] += 1
        return lower(*args)

    monkeypatch.setattr(simplify, "_frontier", recording_frontier)
    monkeypatch.setattr(barenco, "_lower", counting_lower)
    return seen


class TestOneRun:
    def test_verified_cancel_runs_the_frontier_once(self, calls):
        state, record = Pipeline(verify="auto", cache=None).apply(
            CancelPass(), FlowState(quantum=cancel_input())
        )
        assert len(calls["trails"]) == 1
        assert isinstance(calls["trails"][0], list)
        assert REWRITE_DETAIL.match(record.verification.detail)
        assert state.certificate is None

    @pytest.mark.parametrize("source", ["cascade", "circuit"])
    def test_verified_rptm_lowers_once(self, calls, source):
        state = rptm_input()
        if source == "circuit":
            state = FlowState(quantum=state.reversible.to_quantum_circuit())
        out, record = Pipeline(verify="auto", cache=None).apply(
            MapToCliffordTPass(), state
        )
        assert calls["lower"] == 1
        assert BLOCK_DETAIL.match(record.verification.detail)
        assert out.certificate is None

    def test_verified_qsharp_flow_runs_each_loop_once(self, calls):
        result = repro.compile(
            PAPER_PI, target="qsharp", verify="auto", cache=None
        )
        assert result.verified
        assert len(calls["trails"]) == 1 and calls["lower"] == 1
        assert result.state.certificate is None


class TestUnverifiedRun:
    def test_logs_no_trail_and_carries_no_certificate(self, calls):
        result = repro.compile(
            PAPER_PI, target="qsharp", verify="off", cache=None
        )
        assert calls["trails"] == [None]
        assert calls["lower"] == 1
        assert result.state.certificate is None

    def test_run_certified_of_a_plain_pass_makes_none(self):
        state = FlowState(function=generators.hwb(3))
        out, certificate = SynthesisPass("tbs").run_certified(state)
        assert certificate is None
        assert out.reversible == SynthesisPass("tbs").run(state).reversible

    def test_cache_keys_are_unchanged(self):
        pipeline = Pipeline(cache=None)
        cancel_state = FlowState(quantum=cancel_input())
        rptm_state = rptm_input()
        # the keys these stores had before the certificate slot existed
        assert pipeline._cache_key(CancelPass(), cancel_state) == (
            "('cancel', 'CancelPass', ())/"
            "cfe88d448adf82668dfef565e9f4373f8aae61b39f4a4bb4fceaf144332cb279"
        )
        assert pipeline._cache_key(MapToCliffordTPass(), rptm_state) == (
            "('rptm', 'MapToCliffordTPass', (True, False))/"
            "7a6d8b78bb2418982ee24161533aeac15c43fc041585405c6333298e5c1ccc99"
        )
        # nor does a certificate in the slot change them
        for pass_, state in ((CancelPass(), cancel_state),
                             (MapToCliffordTPass(), rptm_state)):
            marked = state.copy()
            marked.certificate = ("anything",)
            assert marked == state
            assert pipeline._cache_key(pass_, marked) == pipeline._cache_key(
                pass_, state
            )

    def test_the_slot_is_no_store_field(self):
        assert "certificate" not in FIELDS
        state = FlowState(quantum=cancel_input())
        state.certificate = ((0, 1), None)
        assert state.copy().certificate is None


class TestReplay:
    @staticmethod
    def verdicts(result):
        return [
            (r.name, r.verification.status, r.verification.tier,
             r.verification.checks)
            for r in result.records
        ]

    def test_replay_of_an_unverified_entry_matches_a_cold_run(self, calls):
        cold = repro.compile(
            PAPER_PI, target="qsharp", verify="auto", cache=None
        )
        cache = PassCache()
        repro.compile(PAPER_PI, target="qsharp", verify="off", cache=cache)
        del calls["trails"][:]
        calls["lower"] = 0
        replay = repro.compile(
            PAPER_PI, target="qsharp", verify="auto", cache=cache
        )
        assert all(record.cache_hit for record in replay.records)
        assert replay.verified
        assert self.verdicts(replay) == self.verdicts(cold)
        cancel = replay.record("cancel").verification
        assert REWRITE_DETAIL.match(cancel.detail)
        assert BLOCK_DETAIL.match(replay.record("rptm").verification.detail)
        # each certificate was re-derived once, by a certified run
        assert len(calls["trails"]) == 1
        assert isinstance(calls["trails"][0], list)
        assert calls["lower"] == 1
        assert replay.state.certificate is None
        # the re-check marked the entries verified: a third compile
        # replays the verdict and re-derives nothing
        again = repro.compile(
            PAPER_PI, target="qsharp", verify="auto", cache=cache
        )
        assert {r.verification.tier for r in again.records} == {"cache"}
        assert len(calls["trails"]) == 1 and calls["lower"] == 1

    def test_cache_entries_hold_no_certificate(self):
        cache = PassCache()
        repro.compile(PAPER_PI, target="qsharp", verify="auto", cache=cache)
        pipeline = Pipeline(cache=None)
        state = FlowState(quantum=cancel_input())
        Pipeline(verify="auto", cache=cache).apply(CancelPass(), state)
        outputs, _, verified = cache.get(
            pipeline._cache_key(CancelPass(), state)
        )
        assert verified and set(outputs) == {"quantum"}


class TestForgedCertificates:
    """The slot holds a claim; the checker decides."""

    @staticmethod
    def cancelled():
        before = FlowState(quantum=cancel_input())
        after = CancelPass().run(before)
        groups = simplify.cancel_with_groups(before.quantum)[1]
        assert groups == (((0, 1), None), ((2, 4), None), ((5, 6), 1))
        return before, after, groups

    @staticmethod
    def mapped():
        before = rptm_input()
        after = MapToCliffordTPass().run(before)
        lengths = barenco.map_with_block_lengths(before.reversible)[1]
        return before, after, lengths

    @staticmethod
    def swapped(groups):
        # the pair claims the merge's slot and the merge claims to vanish
        (pair, _), middle, (merge, slot) = groups
        return ((merge, None), middle, (pair, slot))

    @staticmethod
    def shifted(lengths):
        out = list(lengths)
        i = next(i for i, length in enumerate(out) if length > 1)
        out[i] -= 1
        out[i + 1] += 1
        return tuple(out)

    def test_real_certificates_settle_the_checks(self):
        for pass_, (before, after, certificate), detail in (
            (CancelPass(), self.cancelled(), REWRITE_DETAIL),
            (MapToCliffordTPass(), self.mapped(), BLOCK_DETAIL),
        ):
            after.certificate = certificate
            verdict = pass_.check(CHECKER, before, after)
            assert verdict.passed and detail.match(verdict.detail)

    def test_swapped_groups_fall_through(self):
        before, after, groups = self.cancelled()
        after.certificate = self.swapped(groups)
        verdict = CancelPass().check(CHECKER, before, after)
        assert (verdict.status, verdict.tier) == ("passed", "dense")
        assert not REWRITE_DETAIL.match(verdict.detail or "")
        wrong = FlowState(quantum=after.quantum.copy().x(0))
        wrong.certificate = self.swapped(groups)
        assert CancelPass().check(CHECKER, before, wrong).failed

    def test_shifted_block_lengths_fall_through(self):
        before, after, lengths = self.mapped()
        after.certificate = self.shifted(lengths)
        verdict = MapToCliffordTPass().check(CHECKER, before, after)
        assert verdict.passed
        assert not BLOCK_DETAIL.match(verdict.detail or "")
        wrong = before.copy()
        wrong.quantum = after.quantum.copy().x(0)
        wrong.certificate = self.shifted(lengths)
        assert MapToCliffordTPass().check(CHECKER, before, wrong).failed

    def test_a_subclass_that_corrupts_its_output_is_still_caught(self):
        # the certificate is the honest inner run's; the checker finds
        # it does not describe the corrupted output
        class Corrupting(CancelPass):
            name = "corrupting-cancel"

            def run(self, state):
                out = super().run(state)
                out.quantum = out.quantum.copy().t(2)
                return out

        state = FlowState(quantum=cancel_input())
        out, certificate = Corrupting().run_certified(state)
        assert certificate == simplify.cancel_with_groups(state.quantum)[1]
        with pytest.raises(repro.pipeline.VerificationError, match="dense"):
            Pipeline(verify="auto", cache=None).apply(Corrupting(), state)
