"""Chaos tests for the disk cache tier: retries, quarantine, degradation.

Every scenario injects faults at the cache's named sites and asserts
the tier ends in a *typed* state: counted errors, quarantined files,
or memory-only degraded mode — never an unhandled exception, a hang,
or a silently corrupt entry served back to a pipeline.
"""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.pipeline import cache as cache_module
from repro.pipeline.cache import (
    DISK_RETRY,
    QUARANTINE_DIR,
    PassCache,
)
from repro.resilience import DegradedCache, RetryPolicy

KEY = "pass=tbs|sig=chaos|state=deadbeef"


def entry_files(path):
    """Return the content-named entry files under ``path``."""
    return sorted(
        name for name in os.listdir(path) if name.endswith(".json")
    )


def quarantine_files(path):
    """Return the file names sitting in ``path``'s quarantine dir."""
    quarantine = os.path.join(path, QUARANTINE_DIR)
    if not os.path.isdir(quarantine):
        return []
    return sorted(os.listdir(quarantine))


def put_one(cache, key=KEY, value=42):
    """Insert one spillable entry and return its outputs dict."""
    outputs = {"value": value, "label": f"entry-{value}"}
    cache.put(key, outputs, {"runtime": 0.0}, verified=True)
    return outputs


class TestSpillRetry:
    def test_transient_write_failures_are_retried(self, tmp_path, chaos):
        chaos([{"site": "cache.spill.write", "times": 2}])
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        # two injected failures, third attempt lands the file
        assert len(entry_files(tmp_path)) == 1
        stats = cache.stats()
        assert stats["retries"] == 2
        assert stats["disk_io_errors"] == 0
        assert stats["degraded"] == 0
        # a fresh instance can read it back — the spill was complete
        fresh = PassCache(path=str(tmp_path))
        outputs, _details, verified = fresh.get(KEY)
        assert outputs["value"] == 42
        assert verified

    def test_persistent_write_failure_is_counted_not_raised(
        self, tmp_path, chaos
    ):
        chaos([{"site": "cache.spill.write",
                "times": DISK_RETRY.max_attempts}])
        cache = PassCache(path=str(tmp_path))
        put_one(cache)  # must not raise — spill is best effort
        assert entry_files(tmp_path) == []
        stats = cache.stats()
        assert stats["disk_io_errors"] == 1
        assert stats["io_errors"] == 1
        assert stats["retries"] == DISK_RETRY.max_attempts - 1
        # the memory tier is untouched
        outputs, _details, _verified = cache.get(KEY)
        assert outputs["value"] == 42

    def test_no_leaked_tmp_files_after_failed_spill(self, tmp_path, chaos):
        chaos([{"site": "cache.spill.write",
                "times": DISK_RETRY.max_attempts}])
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        leftovers = [
            name for name in os.listdir(tmp_path) if ".tmp." in name
        ]
        assert leftovers == []


class TestLoadRetry:
    def test_transient_read_failures_are_retried(self, tmp_path, chaos):
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        chaos([{"site": "cache.load.read", "times": 2}])
        reader = PassCache(path=str(tmp_path))
        outputs, _details, verified = reader.get(KEY)
        assert outputs["value"] == 42
        assert verified
        stats = reader.stats()
        assert stats["retries"] == 2
        assert stats["disk_hits"] == 1

    def test_persistent_read_failure_is_a_counted_miss(
        self, tmp_path, chaos
    ):
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        chaos([{"site": "cache.load.read", "times": None}])
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None
        stats = reader.stats()
        assert stats["disk_io_errors"] >= 1
        assert stats["misses"] == 1
        # the entry file survives — a dead disk must not eat data
        assert len(entry_files(tmp_path)) == 1


class TestTornWriteQuarantine:
    def test_torn_spill_is_quarantined_on_load(self, tmp_path, chaos):
        chaos([{"site": "cache.spill.write", "action": "torn"}])
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        (torn_name,) = entry_files(tmp_path)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None  # typed miss, not a crash
        assert entry_files(tmp_path) == []
        # the corrupt file moved aside under its original name
        assert quarantine_files(tmp_path) == [torn_name]
        assert reader.stats()["quarantined"] == 1

    def test_quarantined_entries_never_resurrect(self, tmp_path, chaos):
        chaos([{"site": "cache.spill.write", "action": "torn"}])
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None
        for _ in range(3):
            assert reader.get(KEY) is None  # stays a miss forever
        assert reader.stats()["quarantined"] == 1  # moved exactly once

    def test_foreign_format_entry_is_quarantined(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        entry_path = cache._entry_path(KEY)
        with open(entry_path, "w") as stream:
            json.dump({"format": 99, "key": KEY, "outputs": {}}, stream)
        assert cache.get(KEY) is None
        assert quarantine_files(tmp_path) == [
            os.path.basename(entry_path)
        ]


def no_retry_degrade_after(monkeypatch, failures):
    """Disable disk retries and degrade after ``failures`` in a row."""
    monkeypatch.setattr(
        cache_module, "DISK_RETRY", RetryPolicy(max_attempts=1)
    )
    monkeypatch.setattr(cache_module, "DEFAULT_DEGRADE_AFTER", failures)


class TestDegradedMode:
    def degraded_cache(self, tmp_path, chaos, monkeypatch):
        """Return a cache tripped into degraded mode by spill faults."""
        chaos([{"site": "cache.spill.write", "times": None}])
        no_retry_degrade_after(monkeypatch, 3)
        cache = PassCache(path=str(tmp_path))
        for index in range(3):
            put_one(cache, key=f"{KEY}:{index}", value=index)
        return cache

    def test_consecutive_failures_trip_memory_only_mode(
        self, tmp_path, chaos, monkeypatch
    ):
        cache = self.degraded_cache(tmp_path, chaos, monkeypatch)
        assert cache.degraded
        stats = cache.stats()
        assert stats["degraded"] == 1
        assert stats["disk_io_errors"] == 3

    def test_degraded_cache_still_serves_compilations(
        self, tmp_path, chaos, monkeypatch
    ):
        cache = self.degraded_cache(tmp_path, chaos, monkeypatch)
        # memory tier keeps working: inserts and hits succeed
        put_one(cache, key=f"{KEY}:fresh", value=99)
        outputs, _details, _verified = cache.get(f"{KEY}:fresh")
        assert outputs["value"] == 99
        # and the disk is left alone entirely (no new error counts)
        errors_before = cache.stats()["disk_io_errors"]
        put_one(cache, key=f"{KEY}:more", value=7)
        assert cache.get(f"{KEY}:missing-on-purpose") is None
        assert cache.stats()["disk_io_errors"] == errors_before

    def test_probe_recovers_the_tier_once_the_disk_heals(
        self, tmp_path, chaos, monkeypatch
    ):
        cache = self.degraded_cache(tmp_path, chaos, monkeypatch)
        # the plan is exhausted-per-site only for spills; the real
        # disk is fine, so a probe round-trips and un-degrades
        chaos([])  # install a no-fault plan over the failing one
        assert cache.probe() is True
        assert not cache.degraded
        assert cache.stats()["degraded"] == 0
        put_one(cache, key=f"{KEY}:after", value=1)
        assert len(entry_files(tmp_path)) == 1  # spills resumed

    def test_probe_strict_raises_typed_error_while_broken(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        # break the tier for real: replace the directory with a file
        os.rmdir(tmp_path)
        with open(tmp_path, "w") as stream:
            stream.write("not a directory")
        try:
            assert cache.probe() is False
            with pytest.raises(DegradedCache) as info:
                cache.probe(strict=True)
            assert "cache.probe" in str(info.value)
            assert info.value.site == "cache.probe"
        finally:
            os.unlink(tmp_path)

    def test_advisory_touch_failures_never_trip_degradation(
        self, tmp_path, chaos, monkeypatch
    ):
        no_retry_degrade_after(monkeypatch, 1)
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        # break only the LRU access stamp: the entry file vanishes, so
        # every memory hit's utime touch fails with FileNotFoundError
        os.unlink(cache._entry_path(KEY))
        for _ in range(5):
            outputs, _details, _verified = cache.get(KEY)
            assert outputs["value"] == 42  # memory hit keeps serving
        assert not cache.degraded
        assert cache.stats()["disk_io_errors"] == 0


class TestStoreFaults:
    def test_memory_insert_fault_is_tolerated(self, tmp_path, chaos):
        chaos([{"site": "cache.store", "times": 1}])
        cache = PassCache(path=str(tmp_path))
        put_one(cache)  # must not raise
        stats = cache.stats()
        assert stats["memory_io_errors"] == 1
        assert stats["io_errors"] == 1
        assert len(cache) == 0  # the insert was dropped...
        put_one(cache)  # ...but the next one lands
        assert len(cache) == 1


class TestGcChaos:
    def fill(self, path, count=4):
        """Spill ``count`` distinct entries and return the cache."""
        cache = PassCache(path=str(path))
        for index in range(count):
            put_one(cache, key=f"{KEY}:{index}", value=index)
        return cache

    def test_gc_validate_quarantines_corrupt_entries(self, tmp_path):
        cache = self.fill(tmp_path, count=3)
        (victim, *_rest) = entry_files(tmp_path)
        victim_path = os.path.join(tmp_path, victim)
        with open(victim_path, "w") as stream:
            stream.write('{"format": 2, "key": "x"')  # torn JSON
        swept = cache.gc(validate=True)
        assert swept["scanned"] == 3
        assert swept["quarantined"] == 1
        assert swept["evicted"] == 1
        assert swept["entries"] == 2
        assert quarantine_files(tmp_path) == [victim]
        assert len(entry_files(tmp_path)) == 2

    def test_gc_scan_fault_aborts_sweep_without_eviction(
        self, tmp_path, chaos
    ):
        cache = self.fill(tmp_path, count=3)
        chaos([{"site": "cache.gc.scan", "times": 1}])
        swept = cache.gc(max_entries=1)
        assert swept == {
            "scanned": 0,
            "evicted": 0,
            "quarantined": 0,
            "entries": 0,
            "bytes": 0,
        }
        assert len(entry_files(tmp_path)) == 3  # tier intact
        assert cache.stats()["disk_io_errors"] == 1
        # and the next sweep (fault spent) works normally
        assert cache.gc(max_entries=1)["evicted"] == 2

    def test_gc_unlink_fault_skips_entry_and_counts(
        self, tmp_path, chaos
    ):
        cache = self.fill(tmp_path, count=3)
        chaos([{"site": "cache.gc.unlink", "times": 1}])
        swept = cache.gc(max_entries=0)
        # one unlink failed (counted), the others went through
        assert swept["evicted"] == 2
        assert cache.stats()["disk_io_errors"] == 1
        assert len(entry_files(tmp_path)) == 1

    def test_clear_disk_preserves_the_quarantine(self, tmp_path, chaos):
        chaos([{"site": "cache.spill.write", "action": "torn"}])
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None  # quarantines the torn file
        (quarantined,) = quarantine_files(tmp_path)
        put_one(reader, key=f"{KEY}:good", value=1)
        reader.clear(disk=True)
        assert entry_files(tmp_path) == []  # entries wiped
        # quarantined evidence survives for the operator
        assert quarantine_files(tmp_path) == [quarantined]


class TestCacheCli:
    def run_cli(self, capsys, *argv):
        """Invoke ``python -m repro`` in-process, return (code, out)."""
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_reports_resilience_counters(self, tmp_path, capsys):
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == 1
        for counter in ("io_errors", "memory_io_errors",
                        "disk_io_errors", "retries", "degraded"):
            assert payload[counter] == 0
        assert payload["quarantined"] == 0

    def test_stats_counts_quarantined_files(
        self, tmp_path, capsys, chaos
    ):
        chaos([{"site": "cache.spill.write", "action": "torn"}])
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["quarantined"] == 1

    def test_gc_reports_quarantined_count(self, tmp_path, capsys):
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        entry_path = cache._entry_path(f"{KEY}:corrupt")
        with open(entry_path, "w") as stream:
            stream.write("not json at all")
        code, out = self.run_cli(
            capsys, "cache", "gc", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quarantined"] == 1
        assert payload["entries"] == 1  # the healthy entry survived
