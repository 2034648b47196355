"""Chaos tests for the pipeline layer: deadlines and failing passes.

Every scenario must end in either a correct result or a *typed* error
(`DeadlineExceeded`, the failing pass's own error) carrying its flow
position —
never a hang and never a silently wrong circuit.  Nothing re-runs a
failed pass: passes are deterministic, so the first error propagates.
"""

import time

import pytest

from repro.pipeline import (
    Deadline,
    DeadlineExceeded,
    FlowState,
    Pipeline,
    SynthesisPass,
)
from repro.pipeline.passes import Pass
from repro.revkit import generators


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


class TestPassFailures:
    def test_a_failing_pass_raises_after_one_run(self):
        flaky = FlakyPass(failures=1, error=OSError)
        with pytest.raises(OSError) as info:
            Pipeline(cache=None).run([flaky], flow_name="chaos")
        assert flaky.calls == 1
        assert "while running flow 'chaos' pass 1/1" in "".join(
            info.value.__notes__
        )


class TestInjectedPassFaults:
    def seed(self, n=3):
        """Return a flow store carrying an hwb specification."""
        return FlowState(function=generators.hwb(n))

    def test_injected_pass_fault_propagates_then_reruns_clean(
        self, pass_fault
    ):
        pass_fault(SynthesisPass, "tbs")
        pipeline = Pipeline(cache=None)
        with pytest.raises(RuntimeError, match="injected tbs failure"):
            pipeline.apply(SynthesisPass("tbs"), self.seed())
        # the fault is spent: a clean re-run is gate-identical
        state, record = pipeline.apply(SynthesisPass("tbs"), self.seed())
        reference = SynthesisPass("tbs").run(self.seed())
        assert state.reversible.gates == reference.reversible.gates
        assert not record.cache_hit
