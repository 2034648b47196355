"""Unit tests for the fault-injection harness itself."""

import time

import pytest

from repro.resilience import (
    ACTIONS,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedOSError,
    InjectedTimeout,
    active_plan,
    fault_point,
    install,
    mutate_payload,
    plan_from_env,
)


class TestFaultSpec:
    def test_validates_action_and_error(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="x", action="explode")
        with pytest.raises(ValueError, match="unknown fault error"):
            FaultSpec(site="x", error="kaboom")

    def test_matches_exact_and_glob(self):
        exact = FaultSpec(site="cache.spill.write")
        assert exact.matches("cache.spill.write")
        assert not exact.matches("cache.load.read")
        glob = FaultSpec(site="pipeline.pass.run.*")
        assert glob.matches("pipeline.pass.run.tbs")
        assert glob.matches("pipeline.pass.run.revsimp")
        assert not glob.matches("pipeline.apply.claim")

    def test_known_sites_cover_all_layers(self):
        prefixes = {site.split(".")[0] for site in KNOWN_SITES}
        assert prefixes == {"cache", "pipeline", "session"}
        assert set(ACTIONS) == {"raise", "delay", "hang", "torn"}


class TestFaultPlan:
    def test_raise_fires_exactly_times_then_goes_dormant(self, chaos):
        chaos([{"site": "cache.store", "times": 2}])
        with pytest.raises(InjectedOSError):
            fault_point("cache.store")
        with pytest.raises(InjectedOSError):
            fault_point("cache.store")
        fault_point("cache.store")  # dormant now
        fault_point("cache.store")

    def test_skip_lets_early_hits_through(self, chaos):
        chaos([{"site": "cache.load.read", "skip": 2, "times": 1}])
        fault_point("cache.load.read")
        fault_point("cache.load.read")
        with pytest.raises(InjectedOSError):
            fault_point("cache.load.read")
        fault_point("cache.load.read")

    def test_times_none_fires_forever(self, chaos):
        chaos([{"site": "session.dispatch", "times": None,
                "error": "timeout"}])
        for _ in range(5):
            with pytest.raises(InjectedTimeout):
                fault_point("session.dispatch")

    def test_error_kinds(self, chaos):
        chaos([
            {"site": "a", "error": "oserror"},
            {"site": "b", "error": "fault"},
            {"site": "c", "error": "timeout"},
        ])
        with pytest.raises(InjectedOSError) as os_info:
            fault_point("a")
        with pytest.raises(InjectedFault) as fault_info:
            fault_point("b")
        with pytest.raises(InjectedTimeout) as timeout_info:
            fault_point("c")
        assert isinstance(os_info.value, OSError)
        assert fault_info.value.transient
        assert isinstance(timeout_info.value, TimeoutError)

    def test_delay_blocks_for_roughly_seconds(self, chaos):
        chaos([{"site": "pipeline.apply.wait", "action": "delay",
                "seconds": 0.05}])
        start = time.monotonic()
        fault_point("pipeline.apply.wait")
        assert time.monotonic() - start >= 0.04

    def test_release_unblocks_a_pending_hang(self, chaos):
        plan = chaos([{"site": "pipeline.apply.claim", "action": "hang",
                       "seconds": 30}])
        plan.release()
        start = time.monotonic()
        fault_point("pipeline.apply.claim")  # released: returns at once
        assert time.monotonic() - start < 1.0

    def test_torn_truncation_is_seed_deterministic(self):
        payload = "x" * 256

        def torn_with(seed):
            """Run one torn mutation under a fresh plan with ``seed``."""
            plan = FaultPlan([{"site": "cache.spill.write",
                               "action": "torn"}], seed=seed)
            with plan.active():
                return mutate_payload("cache.spill.write", payload)

        first, second = torn_with(42), torn_with(42)
        assert first == second
        assert 0 < len(first) < len(payload)
        assert payload.startswith(first)
        assert torn_with(43) != first  # different seed, different cut

    def test_mutate_handles_raise_specs_too(self, chaos):
        chaos([{"site": "cache.spill.write", "action": "raise"}])
        with pytest.raises(InjectedOSError):
            mutate_payload("cache.spill.write", "payload")
        assert mutate_payload("cache.spill.write", "payload") == "payload"

    def test_report_accounts_hits_and_outcomes(self, chaos):
        plan = chaos([{"site": "cache.store", "times": 1}])
        with pytest.raises(InjectedOSError):
            fault_point("cache.store")
        fault_point("cache.store")
        fault_point("cache.load.read")  # unmatched site still counted
        report = plan.report()
        assert report["seed"] == 1701
        assert report["sites"] == {"cache.store": 2, "cache.load.read": 1}
        assert report["outcomes"] == {"cache.store": {"raise": 1}}
        assert report["specs"][0]["triggered"] == 1

    def test_active_context_manager_restores_previous_plan(self):
        outer = FaultPlan([], name="outer")
        previous = install(outer)
        try:
            inner = FaultPlan([{"site": "cache.store"}], name="inner")
            with inner.active() as active:
                assert active is inner
                assert active_plan() is inner
            assert active_plan() is outer
        finally:
            install(previous)

    def test_no_plan_means_no_ops(self):
        previous = install(None)
        try:
            fault_point("cache.spill.write")
            assert mutate_payload("cache.spill.write", "data") == "data"
        finally:
            install(previous)


class TestPlanFromEnv:
    def test_unset_or_empty_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert plan_from_env() is None

    def test_parses_segments_and_seed(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "cache.spill.write:raise:2;"
            "pipeline.pass.run.*:delay:*:0.2;"
            "cache.load.read:raise:1::timeout;"
            "seed=99",
        )
        plan = plan_from_env()
        assert plan.seed == 99
        assert plan.name == "env:REPRO_FAULTS"
        first, second, third = plan.specs
        assert (first.site, first.action, first.times) == (
            "cache.spill.write", "raise", 2)
        assert (second.times, second.seconds) == (None, 0.2)
        assert (third.times, third.error) == (1, "timeout")

    def test_malformed_segment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "just-a-site")
        with pytest.raises(ValueError, match="malformed"):
            plan_from_env()
