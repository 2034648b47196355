"""Disk-tier lifecycle: LRU ordering, budgets, stamps, statistics."""

import json
import os
import time

import repro
from repro.pipeline import PassCache
from repro.pipeline.cache import DISK_FORMAT


def _fill(cache, count, prefix="key"):
    for index in range(count):
        cache.put(f"{prefix}{index}", {"function": None}, {"i": index})


class TestGcOrdering:
    def test_least_recently_accessed_evicted_first(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 4)
        # age the files apart, then touch key0 via a disk hit from a
        # fresh instance (the memory tier of `cache` would mask it)
        now = time.time()
        for index in range(4):
            entry = cache._entry_path(f"key{index}")
            os.utime(entry, (now - 100 + index, now - 100 + index))
        reader = PassCache(path=str(tmp_path))
        assert reader.get("key0") is not None  # bumps the access stamp
        swept = cache.gc(max_entries=2)
        assert swept["evicted"] == 2
        survivors = {
            json.loads(f.read_text())["key"]
            for f in tmp_path.glob("*.json")
        }
        assert survivors == {"key0", "key3"}

    def test_byte_budget(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 6)
        entry_bytes = sum(
            f.stat().st_size for f in tmp_path.glob("*.json")
        ) // 6
        swept = cache.gc(max_bytes=entry_bytes * 3)
        assert swept["bytes"] <= entry_bytes * 3
        assert swept["evicted"] >= 3

    def test_gc_without_budgets_keeps_entries(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 3)
        assert cache.gc()["evicted"] == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_gc_on_memory_only_cache_is_a_noop(self):
        cache = PassCache()
        _fill(cache, 3)
        assert cache.gc(max_entries=0) == {
            "scanned": 0,
            "evicted": 0,
            "quarantined": 0,
            "entries": 0,
            "bytes": 0,
        }
        assert cache.disk_usage() == (0, 0)
        assert len(cache) == 3

    def test_validate_drops_foreign_and_corrupt_files(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 2)
        victim = next(iter(tmp_path.glob("*.json")))
        victim.write_text('{"format": 999}')
        bystander = tmp_path / "notes.json"  # not a content-named file
        bystander.write_text("{}")
        swept = cache.gc(validate=True)
        assert swept["evicted"] == 1
        assert bystander.exists()


class TestUnboundedDiskTier:
    def test_put_never_evicts_from_disk(self, tmp_path, monkeypatch):
        """The memory tier is LRU-capped; the disk tier keeps every
        spilled entry until gc() sweeps it."""
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 2)
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 10)
        assert len(cache) == 2
        assert cache.disk_usage()[0] == 10
        stats = cache.stats()
        assert stats["memory_evictions"] == 8
        assert stats["disk_evictions"] == 0
        # an entry long gone from memory is still served from disk
        assert cache.get("key0") is not None
        assert cache.stats()["disk_hits"] == 1

    def test_disk_usage_counts_only_entry_files(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 2)
        expected = sum(f.stat().st_size for f in tmp_path.glob("*.json"))
        (tmp_path / "notes.json").write_text("{}")
        leaked = cache._entry_path("key0") + ".tmp.1.2"
        with open(leaked, "w") as stream:
            stream.write("partial")
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "a.json").write_text("{}")
        assert cache.disk_usage() == (2, expected)


class TestGcRecompile:
    def test_evicted_entry_recompiles_cleanly(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        first = repro.compile({"hwb": 3}, target="clifford_t", cache=cache)
        assert cache.gc(max_entries=2)["evicted"] > 0
        assert cache.disk_usage()[0] == 2
        # a fresh instance sees only the surviving entries; the flow
        # must recompute the evicted ones and still agree exactly
        again = repro.compile(
            {"hwb": 3},
            target="clifford_t",
            cache=PassCache(path=str(tmp_path)),
        )
        assert again.circuit.gates == first.circuit.gates


class TestDigestKeys:
    def test_spilled_entry_replays_from_a_fresh_cache(self, tmp_path):
        from repro.pipeline import state_token

        cold = repro.compile(
            {"hwb": 3},
            target="ibm_qe5",
            cache=PassCache(path=str(tmp_path)),
        )
        cold.emit("qasm2")
        warm = repro.compile(
            {"hwb": 3},
            target="ibm_qe5",
            cache=PassCache(path=str(tmp_path)),
        )
        assert warm.cache_hits == len(warm.records)
        assert warm.circuit is not cold.circuit  # decoded from disk
        assert warm.circuit.frozen and warm.circuit == cold.circuit
        assert state_token(warm.circuit) == state_token(cold.circuit)
        assert state_token(warm.routing) == state_token(cold.routing)
        assert warm.emit("qasm2") == cold.emit("qasm2")

    def test_entry_json_holds_no_memo(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        result = repro.compile({"hwb": 3}, target="clifford_t", cache=cache)
        result.emit("qasm2")
        result.metrics()
        for entry in tmp_path.glob("*.json"):
            text = entry.read_text()
            assert "_memo" not in text and "OPENQASM" not in text


class TestStampsAndStats:
    def test_entries_carry_generation_stamps(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        cache.put("a", {"function": None}, {})
        cache.put("a", {"function": None}, {"rewrite": True})
        payload = json.loads(
            next(iter(tmp_path.glob("*.json"))).read_text()
        )
        assert payload["format"] == DISK_FORMAT
        pid, counter = payload["gen"]
        assert pid == os.getpid()
        assert counter > 0

    def test_stats_schema(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 2)
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 3)
        cache.get("key2")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["memory_evictions"] == 1  # 2 entries kept, 3 puts
        assert stats["evictions"] == stats["memory_evictions"] + stats[
            "disk_evictions"
        ]
        # stats() never sizes the disk tier; disk_usage() scans it
        assert "disk_entries" not in stats and "disk_bytes" not in stats
        entries, size = cache.disk_usage()
        assert entries == 3
        assert size == sum(f.stat().st_size for f in tmp_path.glob("*.json"))

    def test_stats_never_touches_the_disk(self, tmp_path, monkeypatch):
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 3)
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for name in ("listdir", "scandir", "stat"):
            monkeypatch.setattr(os, name, counting(getattr(os, name)))
        assert cache.stats()["entries"] == 3
        assert calls == []
        assert cache.disk_usage()[0] == 3
        assert calls.count("listdir") == 1  # one directory scan

    def test_compilation_result_surfaces_cache_stats(self):
        cache = PassCache()
        result = repro.compile({"hwb": 3}, target="toffoli", cache=cache)
        assert result.cache_stats is not None
        assert result.cache_stats["entries"] == len(cache)
        assert set(result.cache_stats) == set(cache.stats())
        uncached = repro.compile({"hwb": 3}, target="toffoli", cache=None)
        assert uncached.cache_stats is None

    def test_clear_resets_eviction_counters(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 1)
        cache = PassCache(path=str(tmp_path))
        _fill(cache, 3)
        assert cache.gc(max_entries=1)["evicted"] == 2
        stats = cache.stats()
        assert stats["memory_evictions"] == 2
        assert stats["disk_evictions"] == 2
        cache.clear(disk=True)
        assert cache.stats()["evictions"] == 0
        assert cache.disk_usage() == (0, 0)
