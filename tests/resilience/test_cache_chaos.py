"""Chaos tests for the disk cache tier: I/O retries, quarantine, degradation.

Every scenario makes a real OS call fail for the cache directory (the
``os_fault`` fixture) or truncates a spilled entry file in place, and
asserts the tier ends in a *typed* state: counted errors, quarantined
files, or memory-only degraded mode — never an unhandled exception, a
hang, or a silently corrupt entry served back to a pipeline.
"""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.pipeline import cache as cache_module
from repro.pipeline.cache import (
    DISK_RETRY_DELAYS,
    QUARANTINE_DIR,
    PassCache,
)

KEY = "pass=tbs|sig=chaos|state=deadbeef"

#: Attempts one disk operation gets: the first plus one per delay.
DISK_ATTEMPTS = len(DISK_RETRY_DELAYS) + 1


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


def make_unlistable(monkeypatch, path):
    """Make ``os.listdir`` raise ``PermissionError`` for ``path`` only."""
    real_listdir = os.listdir
    denied = os.fspath(path)

    def listdir(target="."):
        if os.fspath(target) == denied:
            raise PermissionError(13, "Permission denied", denied)
        return real_listdir(target)

    monkeypatch.setattr(os, "listdir", listdir)


def put_one(cache, key=KEY, value=42):
    """Insert one spillable entry and return its outputs dict."""
    outputs = {"value": value, "label": f"entry-{value}"}
    cache.put(key, outputs, {"runtime": 0.0}, verified=True)
    return outputs


def spill_torn(path, key=KEY):
    """Spill one entry, then truncate its file as a torn write leaves it.

    Returns the entry file's name.
    """
    writer = PassCache(path=str(path))
    put_one(writer, key=key)
    entry_path = writer._entry_path(key)
    os.truncate(entry_path, os.path.getsize(entry_path) // 2)
    return os.path.basename(entry_path)


class FlakyOperation:
    """A disk operation that raises ``error`` for its first ``failures``."""

    def __init__(self, failures, error=OSError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"attempt {self.calls} failed")
        return "done"


class TestDiskRetryLoop:
    """``PassCache._disk_io``: the one retry loop, with fixed pauses."""

    def cache_and_pauses(self, tmp_path, monkeypatch):
        """Return a disk cache and the list its retry sleeps land in."""
        pauses = []
        monkeypatch.setattr(cache_module.time, "sleep", pauses.append)
        return PassCache(path=str(tmp_path)), pauses

    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_failures_before_success_sleep_the_fixed_pauses(
        self, tmp_path, monkeypatch, failures
    ):
        cache, pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        operation = FlakyOperation(failures)
        assert cache._disk_io(operation) == "done"
        assert operation.calls == failures + 1
        assert pauses == list(DISK_RETRY_DELAYS[:failures])
        stats = cache.stats()
        assert stats["retries"] == failures
        assert stats["disk_io_errors"] == 0
        assert stats["io_errors"] == 0

    def test_exhausted_attempts_count_one_error_and_reraise(
        self, tmp_path, monkeypatch
    ):
        cache, pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        operation = FlakyOperation(DISK_ATTEMPTS)
        with pytest.raises(OSError, match=f"attempt {DISK_ATTEMPTS} failed"):
            cache._disk_io(operation)
        assert operation.calls == DISK_ATTEMPTS
        assert pauses == list(DISK_RETRY_DELAYS)
        stats = cache.stats()
        assert stats["retries"] == DISK_ATTEMPTS - 1
        assert stats["disk_io_errors"] == 1
        assert stats["memory_io_errors"] == 0

    @pytest.mark.parametrize(
        "error", [PermissionError, TimeoutError, BlockingIOError]
    )
    def test_every_os_error_is_retried(
        self, tmp_path, monkeypatch, error
    ):
        cache, pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        operation = FlakyOperation(1, error)
        assert cache._disk_io(operation) == "done"
        assert operation.calls == 2
        assert pauses == [DISK_RETRY_DELAYS[0]]

    @pytest.mark.parametrize("error", [ValueError, KeyError, RuntimeError])
    def test_non_os_errors_propagate_after_one_attempt(
        self, tmp_path, monkeypatch, error
    ):
        cache, pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        operation = FlakyOperation(1, error)
        with pytest.raises(error):
            cache._disk_io(operation)
        assert operation.calls == 1
        assert pauses == []
        stats = cache.stats()
        assert stats["retries"] == 0
        assert stats["io_errors"] == 0

    def test_empty_delays_make_one_attempt(self, tmp_path, monkeypatch):
        cache, pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        monkeypatch.setattr(cache_module, "DISK_RETRY_DELAYS", ())
        operation = FlakyOperation(1)
        with pytest.raises(OSError):
            cache._disk_io(operation)
        assert operation.calls == 1
        assert pauses == []
        assert cache.stats()["disk_io_errors"] == 1

    def test_a_success_resets_the_failure_streak(
        self, tmp_path, monkeypatch
    ):
        cache, _pauses = self.cache_and_pauses(tmp_path, monkeypatch)
        no_retry_degrade_after(monkeypatch, 2)
        with pytest.raises(OSError):
            cache._disk_io(FlakyOperation(1))
        cache._disk_io(FlakyOperation(0))
        with pytest.raises(OSError):
            cache._disk_io(FlakyOperation(1))
        # two failures, but never two in a row
        assert cache.stats()["disk_io_errors"] == 2
        assert not cache.degraded


class TestSpillRetry:
    def test_transient_write_failures_are_retried(
        self, tmp_path, os_fault
    ):
        os_fault("open", tmp_path, times=2)
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
        self, tmp_path, os_fault
    ):
        os_fault("open", tmp_path, times=DISK_ATTEMPTS)
        cache = PassCache(path=str(tmp_path))
        put_one(cache)  # must not raise — spill is best effort
        assert entry_files(tmp_path) == []
        stats = cache.stats()
        assert stats["disk_io_errors"] == 1
        assert stats["io_errors"] == 1
        assert stats["retries"] == DISK_ATTEMPTS - 1
        # the memory tier is untouched
        outputs, _details, _verified = cache.get(KEY)
        assert outputs["value"] == 42

    @pytest.mark.parametrize(
        "call, times", [("open", DISK_ATTEMPTS), ("replace", 1)]
    )
    def test_no_leaked_tmp_files_after_failed_spill(
        self, tmp_path, os_fault, call, times
    ):
        # a failed write leaves no temp file; a failed rename (never
        # retried) drops the temp file it could not move into place
        os_fault(call, tmp_path, times=times)
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        assert os.listdir(tmp_path) == []
        assert cache.stats()["disk_io_errors"] == 1


class TestLoadRetry:
    def test_transient_read_failures_are_retried(self, tmp_path, os_fault):
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        os_fault("open", tmp_path, times=2)
        reader = PassCache(path=str(tmp_path))
        outputs, _details, verified = reader.get(KEY)
        assert outputs["value"] == 42
        assert verified
        stats = reader.stats()
        assert stats["retries"] == 2
        assert stats["disk_hits"] == 1

    def test_persistent_read_failure_is_a_counted_miss(
        self, tmp_path, os_fault
    ):
        writer = PassCache(path=str(tmp_path))
        put_one(writer)
        os_fault("open", tmp_path, times=None)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None
        stats = reader.stats()
        assert stats["disk_io_errors"] == 1
        assert stats["retries"] == DISK_ATTEMPTS - 1
        assert stats["misses"] == 1
        # the entry file survives — a dead disk must not eat data
        assert len(entry_files(tmp_path)) == 1


class TestTornWriteQuarantine:
    def test_torn_spill_is_quarantined_on_load(self, tmp_path):
        torn_name = spill_torn(tmp_path)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None  # typed miss, not a crash
        assert entry_files(tmp_path) == []
        # the corrupt file moved aside under its original name
        assert quarantine_files(tmp_path) == [torn_name]
        assert reader.stats()["quarantined"] == 1

    def test_quarantined_entries_never_resurrect(self, tmp_path):
        spill_torn(tmp_path)
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
    monkeypatch.setattr(cache_module, "DISK_RETRY_DELAYS", ())
    monkeypatch.setattr(cache_module, "DEFAULT_DEGRADE_AFTER", failures)


class TestDegradedMode:
    def degraded_cache(self, tmp_path, os_fault, monkeypatch):
        """Return a cache tripped into degraded mode by spill faults.

        Also returns the fault, whose ``heal()`` repairs the disk.
        """
        fault = os_fault("open", tmp_path, times=None)
        no_retry_degrade_after(monkeypatch, 3)
        cache = PassCache(path=str(tmp_path))
        for index in range(3):
            put_one(cache, key=f"{KEY}:{index}", value=index)
        return cache, fault

    def test_consecutive_failures_trip_memory_only_mode(
        self, tmp_path, os_fault, monkeypatch
    ):
        cache, _fault = self.degraded_cache(tmp_path, os_fault, monkeypatch)
        assert cache.degraded
        stats = cache.stats()
        assert stats["degraded"] == 1
        assert stats["disk_io_errors"] == 3

    def test_degraded_cache_still_serves_compilations(
        self, tmp_path, os_fault, monkeypatch
    ):
        cache, _fault = self.degraded_cache(tmp_path, os_fault, monkeypatch)
        # memory tier keeps working: inserts and hits succeed
        put_one(cache, key=f"{KEY}:fresh", value=99)
        outputs, _details, _verified = cache.get(f"{KEY}:fresh")
        assert outputs["value"] == 99
        # and the disk is left alone entirely (no new error counts)
        errors_before = cache.stats()["disk_io_errors"]
        put_one(cache, key=f"{KEY}:more", value=7)
        assert cache.get(f"{KEY}:missing-on-purpose") is None
        assert cache.stats()["disk_io_errors"] == errors_before

    @pytest.mark.parametrize("threshold", [1, 2, 4])
    def test_trips_on_exactly_the_threshold_failure(
        self, tmp_path, os_fault, monkeypatch, threshold
    ):
        os_fault("open", tmp_path, times=None)
        no_retry_degrade_after(monkeypatch, threshold)
        cache = PassCache(path=str(tmp_path))
        for index in range(threshold):
            assert not cache.degraded
            put_one(cache, key=f"{KEY}:{index}", value=index)
        assert cache.degraded
        assert cache.stats()["disk_io_errors"] == threshold

    def test_clear_leaves_degraded_mode(
        self, tmp_path, os_fault, monkeypatch
    ):
        cache, fault = self.degraded_cache(tmp_path, os_fault, monkeypatch)
        fault.heal()
        cache.clear()
        assert not cache.degraded
        put_one(cache)
        assert len(entry_files(tmp_path)) == 1  # spills again

    def test_a_fresh_instance_uses_the_healed_disk(
        self, tmp_path, os_fault, monkeypatch
    ):
        cache, fault = self.degraded_cache(tmp_path, os_fault, monkeypatch)
        assert cache.degraded
        fault.heal()
        fresh = PassCache(path=str(tmp_path))
        assert not fresh.degraded
        put_one(fresh)
        outputs, _details, _verified = PassCache(path=str(tmp_path)).get(KEY)
        assert outputs["value"] == 42

    def test_advisory_touch_failures_never_trip_degradation(
        self, tmp_path, monkeypatch
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
        self, tmp_path, os_fault
    ):
        cache = self.fill(tmp_path, count=3)
        os_fault("listdir", tmp_path)
        with pytest.raises(OSError, match="injected listdir failure"):
            cache.gc(max_entries=1)
        assert len(entry_files(tmp_path)) == 3  # tier intact
        assert cache.stats()["disk_io_errors"] == 1
        # and the next sweep (fault spent) works normally
        assert cache.gc(max_entries=1)["evicted"] == 2

    def test_real_scan_failure_aborts_sweep_and_counts(
        self, tmp_path, os_fault
    ):
        cache = self.fill(tmp_path, count=3)
        listing = os_fault("listdir", tmp_path, error=PermissionError)
        with pytest.raises(PermissionError):
            cache.gc(max_entries=1)
        assert listing.hits == 1  # a failed scan is not retried
        assert len(entry_files(tmp_path)) == 3  # tier intact
        stats = cache.stats()
        assert stats["disk_io_errors"] == 1
        assert stats["io_errors"] == 1

    def test_unlistable_directory_fails_usage_and_clear(
        self, tmp_path, os_fault
    ):
        cache = self.fill(tmp_path, count=3)
        os_fault("listdir", tmp_path, times=2, error=PermissionError)
        with pytest.raises(PermissionError):
            cache.disk_usage()
        with pytest.raises(PermissionError):
            cache.clear(disk=True)
        assert len(entry_files(tmp_path)) == 3  # tier intact
        assert len(cache) == 3  # a failed clear clears nothing
        assert cache.stats()["disk_io_errors"] == 2

    def test_gc_lists_the_directory_once(self, tmp_path, os_fault):
        cache = self.fill(tmp_path, count=3)
        leaked = os.path.join(tmp_path, "0" * 64 + ".json.tmp.1.2")
        with open(leaked, "w") as stream:
            stream.write("{")
        os.utime(leaked, (0, 0))  # a crashed writer's stale temp file
        listing = os_fault("listdir", tmp_path, times=0)
        swept = cache.gc(max_entries=10)
        assert listing.hits == 1
        assert swept["scanned"] == 3
        assert swept["evicted"] == 0
        # the stale temp file came out of that same listing
        assert not os.path.exists(leaked)

    def test_gc_unlink_fault_skips_entry_and_counts(
        self, tmp_path, os_fault
    ):
        cache = self.fill(tmp_path, count=3)
        os_fault("unlink", tmp_path, skip=1)
        swept = cache.gc(max_entries=0)
        # the second unlink failed (counted), the others went through
        assert swept["evicted"] == 2
        assert cache.stats()["disk_io_errors"] == 1
        assert len(entry_files(tmp_path)) == 1

    def test_clear_disk_preserves_the_quarantine(self, tmp_path):
        spill_torn(tmp_path)
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

    def test_stats_reports_only_durable_counters(self, tmp_path, capsys):
        cache = PassCache(path=str(tmp_path))
        put_one(cache)
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        # a fresh maintenance instance's I/O counters could only read 0
        assert payload == {
            "path": str(tmp_path),
            "entries": 1,
            "bytes": payload["bytes"],
            "quarantined": 0,
        }
        assert payload["bytes"] > 0

    def test_stats_counts_quarantined_files(self, tmp_path, capsys):
        spill_torn(tmp_path)
        reader = PassCache(path=str(tmp_path))
        assert reader.get(KEY) is None
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["quarantined"] == 1

    def test_clear_lists_once_and_reports_what_it_deleted(
        self, tmp_path, capsys, os_fault
    ):
        cache = PassCache(path=str(tmp_path))
        for index in range(3):
            put_one(cache, key=f"{KEY}:{index}", value=index)
        size = sum(
            os.path.getsize(os.path.join(tmp_path, name))
            for name in entry_files(tmp_path)
        )
        listing = os_fault("listdir", tmp_path, times=0)
        code, out = self.run_cli(
            capsys, "cache", "clear", "--cache-dir", str(tmp_path),
            "--json",
        )
        assert listing.hits == 1
        assert code == 0
        assert json.loads(out) == {
            "path": str(tmp_path),
            "cleared": 3,
            "bytes_freed": size,
        }
        assert entry_files(tmp_path) == []

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

    @pytest.mark.parametrize("action", ["stats", "gc", "clear"])
    def test_unlistable_directory_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, action
    ):
        put_one(PassCache(path=str(tmp_path)))
        make_unlistable(monkeypatch, tmp_path)
        code = cli_main(["cache", action, "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        monkeypatch.undo()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot list cache directory {str(tmp_path)!r}: "
            "Permission denied\n"
        )
        assert len(entry_files(tmp_path)) == 1  # nothing touched

    def test_unlistable_quarantine_is_not_counted_as_empty(
        self, tmp_path, capsys, monkeypatch
    ):
        os.mkdir(os.path.join(tmp_path, QUARANTINE_DIR))
        make_unlistable(monkeypatch, os.path.join(tmp_path, QUARANTINE_DIR))
        code = cli_main(["cache", "stats", "--cache-dir", str(tmp_path)])
        monkeypatch.undo()
        assert code == 2
        assert "cannot list cache directory" in capsys.readouterr().err
