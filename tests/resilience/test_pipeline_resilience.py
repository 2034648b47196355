"""Chaos tests for the pipeline layer: deadlines and retries.

Every scenario must end in either a correct result or a *typed* error
(`DeadlineExceeded`, `RetriesExhausted`, an injected error) carrying
its flow position — never a hang and never a silently wrong circuit.
"""

import threading
import time

import pytest

from repro.pipeline import (
    FlowState,
    PassCache,
    Pipeline,
    PipelineError,
    SynthesisPass,
    runner,
)
from repro.pipeline.passes import Pass
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    InjectedOSError,
    RetriesExhausted,
    RetryPolicy,
)
from repro.revkit import generators

#: A retry policy that never sleeps — chaos tests should be fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


class FlakyPass(Pass):
    """A pass failing ``failures`` times before succeeding."""

    stage = "transform"
    writes = ("artifacts",)
    cacheable = False  # stateful by design — must never be cached

    def __init__(self, failures=0, error=OSError, name="flaky"):
        """Configure the failure budget and the error type."""
        self.failures = failures
        self.error = error
        self.name = name
        self.calls = 0

    def run(self, state):
        """Fail until the budget is spent, then record the call count."""
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"{self.name} failure #{self.calls}")
        result = state.copy()
        result.artifacts[self.name] = self.calls
        return result


class SleepPass(Pass):
    """A pass spending real wall-clock time."""

    name = "sleepy"
    stage = "transform"
    writes = ("artifacts",)
    cacheable = False

    def __init__(self, seconds):
        """Store how long each run sleeps."""
        self.seconds = seconds

    def run(self, state):
        """Sleep, then pass the store through."""
        time.sleep(self.seconds)
        return state.copy()


class TestDeadlines:
    def test_expired_budget_names_the_flow_position(self):
        pipeline = Pipeline(cache=None, deadline=0.02)
        with pytest.raises(DeadlineExceeded) as info:
            pipeline.run(
                [SleepPass(0.1), SleepPass(0.1)], flow_name="chaos"
            )
        message = str(info.value)
        # the second pass's checkpoint trips: the error carries the
        # flow name, the 1-based position, and the budget
        assert "flow 'chaos'" in message
        assert "pass 2/2" in message
        assert "deadline of 0.02s exceeded" in message

    def test_deadline_fires_between_passes_never_mid_pass(self):
        flaky = FlakyPass(name="witness")
        pipeline = Pipeline(cache=None, deadline=60)
        result = pipeline.run([SleepPass(0.05), flaky])
        assert flaky.calls == 1  # ample budget: everything ran
        assert result.state.artifacts["witness"] == 1

    def test_pipeline_default_deadline_applies(self):
        pipeline = Pipeline(cache=None, deadline=0.01)
        with pytest.raises(DeadlineExceeded):
            pipeline.run([SleepPass(0.05), SleepPass(0.05)])

    def test_numeric_deadline_starts_at_construction(self):
        pipeline = Pipeline(cache=None, deadline=0.02)
        time.sleep(0.05)
        with pytest.raises(DeadlineExceeded):
            pipeline.run([FlakyPass()])

    def test_shared_deadline_object_spans_layers(self):
        deadline = Deadline.after(60)
        pipeline = Pipeline(cache=None, deadline=deadline)
        assert pipeline.deadline is deadline
        pipeline.run([FlakyPass()])
        assert not deadline.expired()  # same budget, not restarted


class TestRetryPolicyOnPasses:
    def test_transient_pass_failures_are_retried(self):
        flaky = FlakyPass(failures=2, error=OSError)
        pipeline = Pipeline(cache=None, retry=FAST_RETRY)
        result = pipeline.run([flaky])
        assert flaky.calls == 3
        assert result.state.artifacts["flaky"] == 3

    def test_exhausted_retries_raise_typed_error_with_context(self):
        flaky = FlakyPass(failures=99, error=OSError)
        pipeline = Pipeline(cache=None, retry=FAST_RETRY)
        with pytest.raises(RetriesExhausted) as info:
            pipeline.run([flaky], flow_name="chaos")
        assert flaky.calls == FAST_RETRY.max_attempts
        message = str(info.value)
        assert "flow 'chaos'" in message
        assert "pipeline.pass.run.flaky" in message

    def test_non_transient_failures_are_not_retried(self):
        flaky = FlakyPass(failures=99, error=ValueError)
        pipeline = Pipeline(cache=None, retry=FAST_RETRY)
        with pytest.raises(ValueError):
            pipeline.run([flaky])
        assert flaky.calls == 1

    def test_retry_count_shorthand(self):
        flaky = FlakyPass(failures=1, error=OSError)
        pipeline = Pipeline(cache=None, retry=2)
        pipeline.run([flaky])
        assert flaky.calls == 2

    def test_without_a_retry_policy_a_failing_pass_raises(self):
        flaky = FlakyPass(failures=1, error=OSError)
        with pytest.raises(OSError):
            Pipeline(cache=None).run([flaky])
        assert flaky.calls == 1


class TestInjectedPassFaults:
    def seed(self, n=3):
        """Return a flow store carrying an hwb specification."""
        return FlowState(function=generators.hwb(n))

    def test_injected_transient_fault_is_retried_to_success(self, chaos):
        chaos([{"site": "pipeline.pass.run.tbs", "times": 1,
                "error": "fault"}])
        pipeline = Pipeline(cache=None, retry=FAST_RETRY)
        state, record = pipeline.apply(SynthesisPass("tbs"), self.seed())
        reference = SynthesisPass("tbs").run(self.seed())
        assert state.reversible.gates == reference.reversible.gates
        assert not record.cache_hit

    def test_claim_site_fault_surfaces_typed_not_hung(self, chaos):
        chaos([{"site": "pipeline.apply.claim", "times": 1}])
        pipeline = Pipeline(cache=PassCache())
        with pytest.raises(InjectedOSError):
            pipeline.apply(SynthesisPass("tbs"), self.seed())
        # the fault is spent: the same apply now succeeds
        state, _record = pipeline.apply(SynthesisPass("tbs"), self.seed())
        assert state.reversible is not None


class TestSingleFlightTimeout:
    def seed(self):
        """Return a flow store carrying an hwb specification."""
        return FlowState(function=generators.hwb(3))

    def hung_leader(self, cache, seed):
        """Claim the tbs key as a leader that never finishes."""
        key = Pipeline(cache=cache)._cache_key(SynthesisPass("tbs"), seed)
        role, _event = cache.begin_compute(key)
        assert role == "leader"
        return key

    def run_follower(self, pipeline, seed):
        """Run one follower apply in a thread; return its outcome."""
        outcome = {}

        def follower():
            """Apply the pass and record gates/hit (or the error)."""
            try:
                state, record = pipeline.apply(SynthesisPass("tbs"), seed)
            except PipelineError as exc:
                outcome["error"] = exc
            else:
                outcome["gates"] = state.reversible.gates
                outcome["hit"] = record.cache_hit
        thread = threading.Thread(target=follower)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "follower hung"
        return outcome

    def test_follower_recomputes_past_the_timeout(self, monkeypatch):
        monkeypatch.setattr(runner, "SINGLE_FLIGHT_TIMEOUT", 0.05)
        cache = PassCache()
        seed = self.seed()
        key = self.hung_leader(cache, seed)
        try:
            outcome = self.run_follower(Pipeline(cache=cache), seed)
        finally:
            cache.end_compute(key)
        assert outcome["hit"] is False  # recomputed, not replayed
        reference = SynthesisPass("tbs").run(self.seed())
        assert outcome["gates"] == reference.reversible.gates

    @pytest.mark.parametrize("raw", ["3600", "inf"])
    def test_env_variable_is_ignored(self, monkeypatch, raw):
        """``REPRO_SINGLE_FLIGHT_TIMEOUT`` no longer sets the wait:
        the follower gives up after ``runner.SINGLE_FLIGHT_TIMEOUT``."""
        monkeypatch.setenv("REPRO_SINGLE_FLIGHT_TIMEOUT", raw)
        monkeypatch.setattr(runner, "SINGLE_FLIGHT_TIMEOUT", 0.05)
        cache = PassCache()
        seed = self.seed()
        key = self.hung_leader(cache, seed)
        try:
            outcome = self.run_follower(Pipeline(cache=cache), seed)
        finally:
            cache.end_compute(key)
        assert "error" not in outcome
        assert outcome["hit"] is False

    def test_deadline_bounds_the_follower_wait(self):
        cache = PassCache()
        seed = self.seed()
        key = self.hung_leader(cache, seed)
        # the deadline, not the 60s follower timeout, must win
        pipeline = Pipeline(cache=cache, deadline=0.1)
        outcome = {}

        def follower():
            """Wait on the hung leader under a tiny deadline."""
            try:
                pipeline.apply(SynthesisPass("tbs"), seed)
            except DeadlineExceeded as exc:
                outcome["error"] = exc

        try:
            started = time.monotonic()
            thread = threading.Thread(target=follower)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "follower hung"
            elapsed = time.monotonic() - started
        finally:
            cache.end_compute(key)
        assert isinstance(outcome.get("error"), DeadlineExceeded)
        assert "pipeline.apply.wait(tbs)" in str(outcome["error"])
        assert elapsed < 10
