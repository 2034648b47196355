"""Chaos tests for the session layer: job timeouts and failing jobs.

The obligations: a hung job surfaces as a typed error within its
budget (the worker is abandoned, never joined), a failing job's first
error propagates out of the batch (nothing re-dispatches it; a clean
re-run is gate-identical to a plain one), and a batch run with a job
timeout produces gate-identical circuits to a plain run.
"""

import asyncio
import time

import pytest

import repro
from repro.compiler import CompilerSession
from repro.pipeline import Pipeline, PipelineError
from repro.resilience import DeadlineExceeded, InjectedFault, InjectedOSError

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

    @pytest.mark.parametrize(
        "error, raised",
        [("fault", InjectedFault), ("oserror", InjectedOSError)],
    )
    def test_injected_pass_fault_propagates(self, chaos, error, raised):
        chaos([{"site": "pipeline.pass.run.tbs", "times": 1,
                "error": error}])
        with pytest.raises(raised) as info:
            repro.compile({"hwb": 3}, target="toffoli", cache=None)
        assert "flow 'toffoli[generator]' pass 2/3 ('tbs'" in "".join(
            info.value.__notes__
        )
        # the fault is spent: a clean re-run is gate-identical
        result = repro.compile({"hwb": 3}, target="toffoli", cache=None)
        assert result.reversible.gates == reference(3).reversible.gates

    def test_explicit_pipeline_conflicts_with_resilience_kwargs(self):
        pipeline = Pipeline(cache=None)
        with pytest.raises(PipelineError, match="conflicts with deadline="):
            repro.compile({"hwb": 3}, pipeline=pipeline, deadline=5)

    @pytest.mark.parametrize("budget", [0, -1, float("nan"), True])
    def test_compile_rejects_bad_deadline_naming_it(self, budget):
        with pytest.raises(ValueError, match=f"not {budget!r}"):
            repro.compile({"hwb": 3}, cache=None, deadline=budget)

    def test_session_rejects_non_positive_job_timeout(self):
        with pytest.raises(PipelineError, match="job_timeout"):
            CompilerSession(job_timeout=0)
        with pytest.raises(PipelineError, match="job_timeout"):
            CompilerSession(job_timeout=-1)

    @pytest.mark.parametrize("budget", [float("nan"), True])
    def test_session_rejects_nan_and_bool_job_timeout(self, budget):
        with pytest.raises(PipelineError, match=repr(budget)):
            CompilerSession(job_timeout=budget)


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


class TestDispatchFaults:
    def test_dispatch_fault_propagates_then_reruns_clean(self, chaos):
        chaos([{"site": "session.dispatch", "times": 1,
                "error": "fault"}])
        session = CompilerSession(target="toffoli", cache=None)
        with pytest.raises(InjectedFault, match="session.dispatch"):
            session.sweep({"hwb": [3]})
        (point,) = session.sweep({"hwb": [3]})
        expected = reference(3)
        assert point.result.reversible.gates == expected.reversible.gates

    def test_batch_under_faults_fails_then_reruns_gate_identical(
        self, chaos
    ):
        # the first injected failure sinks the batch; once the plan is
        # spent, the same batch produces exactly the fault-free circuits
        chaos([{"site": "session.dispatch", "times": 2,
                "error": "fault"}])
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2
        )
        with pytest.raises(InjectedFault):
            session.sweep({"hwb": [3, 4]})
        chaos([])
        swept = session.sweep({"hwb": [3, 4]})
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates


class TestWrappersAreTransparent:
    def test_batch_with_all_wrappers_matches_plain_run(self):
        # no faults installed: the job deadline on a healthy run must
        # be behaviorally invisible (the <2% bench obligation is the
        # perf half of this same contract)
        session = CompilerSession(
            target="toffoli", cache=None, max_workers=2,
            job_timeout=60,
        )
        swept = session.sweep({"hwb": [3, 4]})
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates

    def test_sweep_with_wrappers_matches_plain_sweep(self):
        wrapped = CompilerSession(
            target="clifford_t", cache=None, max_workers=2,
            job_timeout=60,
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
            job_timeout=60,
        )
        swept = asyncio.run(session.sweep_async({"hwb": [3, 4]}))
        for point in swept.points:
            n = point.params["hwb"]
            expected = reference(n)
            assert (
                point.result.reversible.gates
                == expected.reversible.gates
            )
