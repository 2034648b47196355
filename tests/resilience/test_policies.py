"""Unit tests for the pipeline's deadline: Deadline and as_deadline."""

import time

import pytest

from repro.pipeline import (
    Deadline,
    DeadlineExceeded,
    PipelineError,
    as_deadline,
)


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

    def test_deadline_errors_are_pipeline_errors(self):
        assert DeadlineExceeded.__bases__ == (PipelineError,)

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
