"""Unit tests for the resilience vocabulary: Deadline and RetryPolicy."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline import PipelineError
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    ResilienceError,
    RetriesExhausted,
    RetryPolicy,
    as_deadline,
    as_retry,
)


class Flaky:
    """Callable failing ``failures`` times before returning ``value``."""

    def __init__(self, failures, error=OSError, value="ok"):
        self.failures = failures
        self.error = error
        self.value = value
        self.calls = 0

    def __call__(self):
        """Fail until the budgeted failures are used up."""
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"flaky failure #{self.calls}")
        return self.value


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_rejects_non_positive_budgets(self):
        for bad in (0, -1, -0.5):
            with pytest.raises(ValueError):
                Deadline.after(bad)

    @pytest.mark.parametrize("bad", [float("nan"), True, False])
    def test_after_rejects_nan_and_bools_naming_the_value(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            Deadline.after(bad)

    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline.after(60)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60
        deadline.check(site="test")  # must not raise

    def test_expired_deadline_raises_with_site_in_message(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0, budget=0.5)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check(site="pipeline.apply(tbs)")
        assert "pipeline.apply(tbs)" in str(info.value)
        assert "0.5s" in str(info.value)
        assert info.value.site == "pipeline.apply(tbs)"

    def test_check_without_site_uses_generic_label(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0, budget=1.0)
        with pytest.raises(DeadlineExceeded, match="deadline:"):
            deadline.check()

    def test_bound_clamps_timeouts(self):
        deadline = Deadline.after(10)
        assert deadline.bound(0.5) == 0.5
        assert deadline.bound(None) == pytest.approx(10, abs=1.0)
        assert deadline.bound(99) <= 10

    def test_bound_floors_at_zero_once_expired(self):
        deadline = Deadline(expires_at=time.monotonic() - 5.0, budget=1.0)
        assert deadline.bound(3.0) == 0.0
        assert deadline.bound(None) == 0.0

    def test_deadline_errors_are_pipeline_errors(self):
        assert issubclass(DeadlineExceeded, ResilienceError)
        assert issubclass(ResilienceError, PipelineError)

    def test_as_deadline_coercion(self):
        assert as_deadline(None) is None
        existing = Deadline.after(5)
        assert as_deadline(existing) is existing
        made = as_deadline(2.5)
        assert isinstance(made, Deadline)
        assert made.budget == 2.5

    @pytest.mark.parametrize("bad", [True, float("nan")])
    def test_as_deadline_refuses_bools_and_nan(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            as_deadline(bad)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    @pytest.mark.parametrize("bad", [True, 2.5, float("nan")])
    def test_rejects_non_int_attempts_naming_the_value(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            RetryPolicy(max_attempts=bad)

    def test_rejects_nan_delays(self):
        with pytest.raises(ValueError, match="nan"):
            RetryPolicy(base_delay=float("nan"))

    def test_success_needs_no_retry(self):
        flaky = Flaky(failures=0)
        policy = RetryPolicy(max_attempts=3)
        assert policy.call(flaky, sleep=lambda _s: None) == "ok"
        assert flaky.calls == 1

    def test_transient_failures_are_retried_until_success(self):
        flaky = Flaky(failures=2, error=OSError)
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        assert policy.call(flaky, sleep=sleeps.append) == "ok"
        assert flaky.calls == 3
        assert len(sleeps) == 2
        assert sleeps[0] < sleeps[1]  # exponential growth

    def test_non_transient_failures_raise_immediately(self):
        flaky = Flaky(failures=5, error=ValueError)
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(ValueError):
            policy.call(flaky, sleep=lambda _s: None)
        assert flaky.calls == 1

    def test_exhaustion_raises_typed_error_with_cause(self):
        flaky = Flaky(failures=99, error=TimeoutError)
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(RetriesExhausted) as info:
            policy.call(flaky, site="session.dispatch",
                        sleep=lambda _s: None)
        assert flaky.calls == 3
        assert "session.dispatch" in str(info.value)
        assert "3 attempt(s)" in str(info.value)
        assert isinstance(info.value.__cause__, TimeoutError)
        assert info.value.site == "session.dispatch"

    def test_transient_attribute_marks_custom_errors(self):
        class Custom(RuntimeError):
            transient = True

        flaky = Flaky(failures=1, error=Custom)
        policy = RetryPolicy(max_attempts=2)
        assert policy.call(flaky, sleep=lambda _s: None) == "ok"

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.25, seed=7)
        again = RetryPolicy(base_delay=0.01, multiplier=2.0,
                            max_delay=0.05, jitter=0.25, seed=7)
        for attempt in range(6):
            delay = policy.backoff(attempt)
            assert delay == again.backoff(attempt)
            assert 0.0 <= delay <= 0.05 * 1.25

    def test_backoff_without_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0,
                             max_delay=10.0, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)

    def test_deadline_checked_before_attempts(self):
        expired = Deadline(expires_at=time.monotonic() - 1.0, budget=1.0)
        flaky = Flaky(failures=0)
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(DeadlineExceeded):
            policy.call(flaky, site="cache.spill.write", deadline=expired,
                        sleep=lambda _s: None)
        assert flaky.calls == 0  # never even attempted

    def test_deadline_bounds_sleeps(self):
        deadline = Deadline.after(60)
        sleeps = []
        policy = RetryPolicy(max_attempts=2, base_delay=120.0, jitter=0.0)
        policy.call(Flaky(1, error=OSError), deadline=deadline,
                    sleep=sleeps.append)
        assert sleeps and sleeps[0] <= 60

    def test_as_retry_coercion(self):
        assert as_retry(None) is None
        existing = RetryPolicy(max_attempts=5)
        assert as_retry(existing) is existing
        made = as_retry(4)
        assert isinstance(made, RetryPolicy)
        assert made.max_attempts == 4
        assert as_retry(3.0).max_attempts == 3

    @pytest.mark.parametrize("bad", [True, 2.7, float("nan"), "3"])
    def test_as_retry_refuses_bools_fractions_and_nan(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            as_retry(bad)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_retry_attempt_count_matches_policy(self, attempts, seed):
        """Property: a permanently failing op runs exactly max_attempts."""
        flaky = Flaky(failures=10 ** 9, error=OSError)
        policy = RetryPolicy(max_attempts=attempts, seed=seed)
        with pytest.raises(RetriesExhausted):
            policy.call(flaky, sleep=lambda _s: None)
        assert flaky.calls == attempts
