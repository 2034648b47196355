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
            FaultSpec(site="cache.load.read", action="explode")
        with pytest.raises(ValueError, match="unknown fault error"):
            FaultSpec(site="cache.load.read", error="kaboom")

    @pytest.mark.parametrize(
        "site",
        ["session.dispach", "session.dispatch", "pipeline.apply.claim",
         "pipeline.pass.run.", "cache.*.write.x", "a"],
    )
    def test_refuses_a_site_matching_no_registered_site(self, site):
        with pytest.raises(ValueError, match=f"unknown fault site '{site}'"):
            FaultSpec(site=site)

    @pytest.mark.parametrize(
        "site",
        ["cache.gc.scan", "cache.*", "*", "pipeline.pass.run.tbs",
         "pipeline.pass.run.revgen-hwb", "pipeline.pass.run.*",
         "pipeline.*"],
    )
    def test_accepts_registered_sites_and_pass_names(self, site):
        assert FaultSpec(site=site).site == site

    def test_matches_exact_and_glob(self):
        exact = FaultSpec(site="cache.spill.write")
        assert exact.matches("cache.spill.write")
        assert not exact.matches("cache.load.read")
        glob = FaultSpec(site="pipeline.pass.run.*")
        assert glob.matches("pipeline.pass.run.tbs")
        assert glob.matches("pipeline.pass.run.revsimp")
        assert not glob.matches("cache.gc.scan")

    def test_known_sites_cover_all_layers(self):
        prefixes = {site.split(".")[0] for site in KNOWN_SITES}
        assert prefixes == {"cache", "pipeline"}
        assert set(ACTIONS) == {"raise", "delay", "torn"}


class TestFaultPlan:
    def test_raise_fires_exactly_times_then_goes_dormant(self, chaos):
        chaos([{"site": "cache.gc.unlink", "times": 2}])
        with pytest.raises(InjectedOSError):
            fault_point("cache.gc.unlink")
        with pytest.raises(InjectedOSError):
            fault_point("cache.gc.unlink")
        fault_point("cache.gc.unlink")  # dormant now
        fault_point("cache.gc.unlink")

    def test_skip_lets_early_hits_through(self, chaos):
        chaos([{"site": "cache.load.read", "skip": 2, "times": 1}])
        fault_point("cache.load.read")
        fault_point("cache.load.read")
        with pytest.raises(InjectedOSError):
            fault_point("cache.load.read")
        fault_point("cache.load.read")

    def test_times_none_fires_forever(self, chaos):
        chaos([{"site": "cache.gc.scan", "times": None,
                "error": "timeout"}])
        for _ in range(5):
            with pytest.raises(InjectedTimeout):
                fault_point("cache.gc.scan")

    def test_error_kinds(self, chaos):
        chaos([
            {"site": "cache.load.read", "error": "oserror"},
            {"site": "cache.gc.scan", "error": "fault"},
            {"site": "cache.gc.unlink", "error": "timeout"},
        ])
        with pytest.raises(InjectedOSError) as os_info:
            fault_point("cache.load.read")
        with pytest.raises(InjectedFault) as fault_info:
            fault_point("cache.gc.scan")
        with pytest.raises(InjectedTimeout) as timeout_info:
            fault_point("cache.gc.unlink")
        assert isinstance(os_info.value, OSError)
        # a generic fault is no I/O error: nothing in the stack retries it
        assert not isinstance(fault_info.value, OSError)
        assert isinstance(timeout_info.value, TimeoutError)

    def test_delay_blocks_for_roughly_seconds(self, chaos):
        chaos([{"site": "pipeline.pass.run.tbs", "action": "delay",
                "seconds": 0.05}])
        start = time.monotonic()
        fault_point("pipeline.pass.run.tbs")
        assert time.monotonic() - start >= 0.04

    def test_release_unblocks_a_pending_delay(self, chaos):
        plan = chaos([{"site": "pipeline.pass.run.tbs", "action": "delay",
                       "seconds": 30}])
        plan.release()
        start = time.monotonic()
        fault_point("pipeline.pass.run.tbs")  # released: returns at once
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
        plan = chaos([{"site": "cache.gc.unlink", "times": 1}])
        with pytest.raises(InjectedOSError):
            fault_point("cache.gc.unlink")
        fault_point("cache.gc.unlink")
        fault_point("cache.load.read")  # unmatched site still counted
        report = plan.report()
        assert report["seed"] == 1701
        assert report["sites"] == {
            "cache.gc.unlink": 2, "cache.load.read": 1
        }
        assert report["outcomes"] == {"cache.gc.unlink": {"raise": 1}}
        assert report["specs"][0]["triggered"] == 1

    def test_active_context_manager_restores_previous_plan(self):
        outer = FaultPlan([], name="outer")
        previous = install(outer)
        try:
            inner = FaultPlan([{"site": "cache.gc.unlink"}], name="inner")
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

    def test_unknown_site_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "session.dispatch:raise:1")
        with pytest.raises(ValueError, match="'session.dispatch'"):
            plan_from_env()

    def test_malformed_segment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "just-a-site")
        with pytest.raises(ValueError, match="malformed"):
            plan_from_env()
