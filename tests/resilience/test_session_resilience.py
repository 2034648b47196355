"""Chaos tests for the session layer: job timeouts, dispatch retries.

The obligations, per ISSUE 6: a hung or failing job surfaces as a
typed error within its budget (the worker is abandoned, never joined),
transient dispatch failures are retried to success, and a batch run
with all resilience wrappers enabled produces gate-identical circuits
to a plain run.
"""

import asyncio
import time

import pytest

import repro
from repro.compiler import CompilerSession
from repro.pipeline import Pipeline, PipelineError
from repro.resilience import DeadlineExceeded, RetriesExhausted

#: How long a deliberately stalled worker sleeps — must comfortably
#: exceed every job_timeout+grace used below.
STALL = 2.0


def reference(n, target="toffoli"):
    """Compile one hwb instance with no resilience wrappers at all."""
    return repro.compile({"hwb": n}, target=target, cache=None)


class TestCompileDeadline:
    def test_deadline_expiry_names_the_flow_position(self, chaos):
        chaos([{"site": "pipeline.pass.run.*", "action": "delay",
                "seconds": 0.2, "times": 1}])
        with pytest.raises(DeadlineExceeded) as info:
            repro.compile({"hwb": 3}, cache=None, deadline=0.05)
        message = str(info.value)
        assert "deadline of 0.05s exceeded" in message
        assert "pass " in message  # flow position survived wrapping

    def test_retry_recovers_an_injected_pass_fault(self, chaos):
        chaos([{"site": "pipeline.pass.run.tbs", "times": 1,
                "error": "fault"}])
        result = repro.compile(
            {"hwb": 3}, target="toffoli", cache=None, retry=2
        )
        expected = reference(3)
        assert result.reversible.gates == expected.reversible.gates

    def test_retry_alone_recovers_an_injected_os_error(self, chaos):
        chaos([{"site": "pipeline.pass.run.tbs", "times": 1}])
        result = repro.compile({"hwb": 3}, cache=None, retry=3)
        expected = repro.compile({"hwb": 3}, cache=None)
        assert result.circuit.gates == expected.circuit.gates

    def test_explicit_pipeline_conflicts_with_resilience_kwargs(self):
        pipeline = Pipeline(cache=None)
        with pytest.raises(PipelineError, match="conflicts"):
            repro.compile({"hwb": 3}, pipeline=pipeline, deadline=5)
        with pytest.raises(PipelineError, match="conflicts"):
            repro.compile({"hwb": 3}, pipeline=pipeline, retry=2)

    def test_session_rejects_non_positive_job_timeout(self):
        with pytest.raises(PipelineError, match="job_timeout"):
            CompilerSession(job_timeout=0)
        with pytest.raises(PipelineError, match="job_timeout"):
            CompilerSession(job_timeout=-1)

    @pytest.mark.parametrize("budget", [float("nan"), True])
    def test_session_rejects_nan_and_bool_job_timeout(self, budget):
        with pytest.raises(PipelineError, match=repr(budget)):
            CompilerSession(job_timeout=budget)

    @pytest.mark.parametrize("attempts", [True, 2.7, float("nan"), 0])
    def test_session_rejects_bad_retry(self, attempts):
        with pytest.raises(PipelineError, match="retry|max_attempts"):
            CompilerSession(retry=attempts)


class TestJobTimeoutBackstop:
    def test_hung_job_is_abandoned_within_budget(self, chaos):
        chaos([{"site": "session.dispatch", "action": "delay",
                "seconds": STALL, "times": None}])
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2,
            job_timeout=0.1,
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            session.sweep({"hwb": [3, 3]})
        elapsed = time.monotonic() - started
        message = str(info.value)
        assert "session.job[" in message
        assert "0.1s job timeout" in message
        assert "worker abandoned" in message
        # the caller got its typed error promptly — it never waited
        # for the stalled worker's full sleep
        assert elapsed < STALL

    def test_cooperative_deadline_fires_inside_the_worker(self, chaos):
        # the in-worker deadline (exact flow position) must fire at
        # the first checkpoint after the stalled pass — the backstop
        # exists only for workers that never come back at all
        chaos([{"site": "pipeline.pass.run.*", "action": "delay",
                "seconds": 0.3, "times": 1}])
        # the job function the pool threads run, called directly
        session = CompilerSession(cache=None, job_timeout=0.1)
        with pytest.raises(DeadlineExceeded) as info:
            session._compile_task({"hwb": 3}, "toffoli")
        message = str(info.value)
        assert "deadline of 0.1s exceeded" in message
        assert "pass " in message  # cooperative: flow position known

    def test_async_hung_job_is_abandoned_within_budget(self, chaos):
        chaos([{"site": "session.dispatch", "action": "delay",
                "seconds": STALL, "times": None}])
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2,
            job_timeout=0.1,
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="worker abandoned"):
            asyncio.run(
                session.sweep_async({"hwb": [3, 3]})
            )
        assert time.monotonic() - started < STALL


class TestDispatchRetry:
    def test_transient_dispatch_fault_is_retried_to_success(
        self, chaos
    ):
        chaos([{"site": "session.dispatch", "times": 1,
                "error": "fault"}])
        session = CompilerSession(target="toffoli", cache=None, retry=2)
        (point,) = session.sweep({"hwb": [3]})
        expected = reference(3)
        assert point.result.reversible.gates == expected.reversible.gates

    def test_exhausted_dispatch_retries_raise_typed_error(self, chaos):
        chaos([{"site": "session.dispatch", "times": None,
                "error": "fault"}])
        session = CompilerSession(target="toffoli", cache=None, retry=2)
        with pytest.raises(RetriesExhausted) as info:
            session.sweep({"hwb": [3]})
        assert "session.dispatch" in str(info.value)
        assert "2 attempt(s)" in str(info.value)

    def test_batch_under_faults_stays_gate_identical(self, chaos):
        # one injected fault per task, everything retried: the batch
        # must still produce exactly the fault-free circuits
        chaos([{"site": "session.dispatch", "times": 2,
                "error": "fault"}])
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2, retry=3
        )
        swept = session.sweep({"hwb": [3, 4]})
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates


class TestWrappersAreTransparent:
    def test_batch_with_all_wrappers_matches_plain_run(self):
        # no faults installed: deadline+retry wrappers on a healthy
        # run must be behaviorally invisible (the <2% bench obligation
        # is the perf half of this same contract)
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2,
            job_timeout=60, retry=2,
        )
        swept = session.sweep({"hwb": [3, 4]})
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates

    def test_sweep_with_wrappers_matches_plain_sweep(self):
        wrapped = CompilerSession(
            target="clifford_t", cache=None, max_workers=2,
            job_timeout=60, retry=2,
        ).sweep({"hwb": [3, 4]})
        plain = CompilerSession(
            target="clifford_t", cache=None, max_workers=2
        ).sweep({"hwb": [3, 4]})
        assert len(wrapped) == len(plain) == 2
        for w, p in zip(wrapped.points, plain.points):
            assert w.params == p.params
            assert w.result.circuit.gates == p.result.circuit.gates

    def test_async_sweep_with_wrappers_matches(self):
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2,
            job_timeout=60, retry=2,
        )
        swept = asyncio.run(session.sweep_async({"hwb": [3, 4]}))
        for point in swept.points:
            n = point.params["hwb"]
            expected = reference(n)
            assert (
                point.result.reversible.gates
                == expected.reversible.gates
            )
