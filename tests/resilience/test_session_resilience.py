"""Chaos tests for the compile facade and session sweeps.

The obligations: an expired deadline surfaces as a typed error naming
the flow position, and a failing pass's first error propagates out of
``repro.compile`` and out of a session sweep (nothing re-runs it; a
clean re-run is gate-identical to a plain one).
"""

import pytest

import repro
from repro.compiler import CompilerSession
from repro.pipeline import Pipeline, PipelineError
from repro.resilience import DeadlineExceeded, InjectedFault, InjectedOSError


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


class TestSweepFaults:
    def test_pass_fault_propagates_out_of_the_sweep_then_reruns_clean(
        self, chaos
    ):
        chaos([{"site": "pipeline.pass.run.tbs", "times": 1,
                "error": "fault"}])
        session = CompilerSession(target="toffoli", cache=None)
        with pytest.raises(InjectedFault, match="pipeline.pass.run.tbs"):
            session.sweep({"hwb": [3, 4]})
        # the fault is spent: the same sweep gives the fault-free circuits
        swept = session.sweep({"hwb": [3, 4]})
        for n, point in zip((3, 4), swept):
            gates = point.result.reversible.gates
            assert gates == reference(n).reversible.gates
