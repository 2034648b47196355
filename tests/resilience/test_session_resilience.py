"""Chaos tests for the compile facade and session sweeps.

The obligations: an expired deadline surfaces as a typed error naming
the flow position, and a failing pass's first error propagates out of
``repro.compile`` and out of a session sweep (nothing re-runs it; a
clean re-run is gate-identical to a plain one).
"""

import pytest

import repro
from repro.compiler import CompilerSession
from repro.pipeline import (
    DeadlineExceeded,
    GeneratePass,
    Pipeline,
    PipelineError,
    SynthesisPass,
)


def reference(n, target="toffoli"):
    """Compile one hwb instance with no resilience wrappers at all."""
    return repro.compile({"hwb": n}, target=target, cache=None)


class TestCompileDeadline:
    def test_deadline_expiry_names_the_flow_position(self, pass_fault):
        # the first pass stalls past the budget; the second trips it
        pass_fault(GeneratePass, "revgen-hwb", error=None, seconds=0.2)
        with pytest.raises(DeadlineExceeded) as info:
            repro.compile({"hwb": 3}, cache=None, deadline=0.05)
        message = str(info.value)
        assert "deadline of 0.05s exceeded" in message
        assert "pass " in message  # flow position survived wrapping

    def test_wrapped_deadline_error_keeps_its_site(self, pass_fault):
        pass_fault(GeneratePass, "revgen-hwb", error=None, seconds=0.2)
        with pytest.raises(DeadlineExceeded) as info:
            repro.compile({"hwb": 3}, cache=None, deadline=0.05)
        assert info.value.site == info.value.__cause__.site
        assert info.value.site.startswith("pipeline.apply(")

    @pytest.mark.parametrize("error", [RuntimeError, OSError])
    def test_injected_pass_fault_propagates(self, pass_fault, error):
        pass_fault(SynthesisPass, "tbs", error=error)
        with pytest.raises(error, match="injected tbs failure") as info:
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


class TestSweepFaults:
    def test_pass_fault_propagates_out_of_the_sweep_then_reruns_clean(
        self, pass_fault
    ):
        pass_fault(SynthesisPass, "tbs")
        session = CompilerSession(cache=None)
        grid = {"hwb": [3, 4], "target": ["toffoli"]}
        with pytest.raises(RuntimeError, match="injected tbs failure"):
            session.sweep(grid)
        # the fault is spent: the same sweep gives the fault-free circuits
        swept = session.sweep(grid)
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates
