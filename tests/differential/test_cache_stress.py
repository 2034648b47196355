"""Concurrency stress tests for the disk-backed pass cache.

Many threads plus a pool of worker processes hammer one disk-backed
:class:`~repro.pipeline.PassCache` while a sweeper thread keeps
running ``gc()`` down to a deliberately tiny byte budget, so spills
and eviction sweeps race with lookups the whole time.  The
obligations: every compilation still produces the correct circuit,
every entry file that survives parses as a complete generation-stamped
entry (no torn writes), the budget holds once the dust settles, and a
flow whose entry is evicted under it recomputes the same result.
"""

import contextlib
import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from _helpers import toffoli_gates

import repro
from repro.compiler import CompilerSession
from repro.pipeline import FlowState, PassCache, Pipeline
from repro.pipeline.cache import DISK_FORMAT
from repro.revkit import generators

BYTE_BUDGET = 4096


def _reference(n, target="clifford_t"):
    return repro.compile({"hwb": n}, target=target, cache=None)


@contextlib.contextmanager
def _sweeping(cache):
    """Run ``cache.gc(max_bytes=BYTE_BUDGET)`` in a loop meanwhile."""
    stop = threading.Event()
    errors = []

    def sweep():
        try:
            while True:
                cache.gc(max_bytes=BYTE_BUDGET)
                if stop.wait(0.005):
                    return
        except Exception as exc:  # re-raised on the test thread below
            errors.append(exc)

    sweeper = threading.Thread(target=sweep)
    sweeper.start()
    try:
        yield
    finally:
        stop.set()
        sweeper.join(timeout=60)
    assert not sweeper.is_alive()
    assert not errors, errors


def _in_threads(count, sweep):
    """Run ``sweep()`` on ``count`` threads at once; return the points."""
    results = [None] * count
    errors = []

    def run(index):
        try:
            results[index] = list(sweep())
        except Exception as exc:  # re-raised on the test thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return [point for points in results for point in points]


class TestThreadStress:
    def test_hammered_bounded_cache_stays_correct(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 4)
        cache = PassCache(path=str(tmp_path))
        session = CompilerSession(cache=cache)  # clifford_t, the default
        reference = {n: _reference(n) for n in (3, 4)}
        with _sweeping(cache):
            # eight threads sweep at once over the one shared cache
            swept = _in_threads(8, lambda: session.sweep({"hwb": [3, 4]}))
        assert len(swept) == 16
        for point in swept:
            expected = reference[point.params["hwb"]]
            assert point.result.circuit.gates == expected.circuit.gates

        # no corrupted entries: every surviving file is a complete,
        # generation-stamped entry (atomic replace ⇒ no torn reads)
        survivors = list(tmp_path.glob("*.json"))
        for entry in survivors:
            payload = json.loads(entry.read_text())
            assert payload["format"] == DISK_FORMAT
            assert "key" in payload and "outputs" in payload
            assert len(payload["gen"]) == 2

        # spills landing after the sweeper's last pass may leave the
        # tier over budget; one final sweep must restore it
        swept = cache.gc(max_bytes=BYTE_BUDGET)
        assert swept["bytes"] <= BYTE_BUDGET
        assert cache.disk_usage()[1] <= BYTE_BUDGET
        assert cache.stats()["disk_evictions"] > 0

        # no lost updates: the tier still serves a fresh process-shape
        # consumer correctly after all that churn
        replay = repro.compile(
            {"hwb": 4}, target="clifford_t", cache=str(tmp_path)
        )
        assert replay.circuit.gates == reference[4].circuit.gates

    def test_threads_and_process_pool_share_one_tier(self, tmp_path):
        path = str(tmp_path)
        reference = {n: _reference(n, "toffoli") for n in (3, 4)}
        thread_cache = PassCache(path=path)
        thread_session = CompilerSession(cache=thread_cache)
        process_sizes = [3, 4] * 2
        outcome = {}

        def hammer_processes():
            with ProcessPoolExecutor(max_workers=2) as pool:
                outcome["process"] = list(pool.map(
                    toffoli_gates, process_sizes, [path] * len(process_sizes)
                ))

        with _sweeping(thread_cache):
            worker = threading.Thread(target=hammer_processes)
            worker.start()
            outcome["thread"] = [
                point.result
                for point in _in_threads(
                    4,
                    lambda: thread_session.sweep(
                        {"hwb": [3, 4], "target": ["toffoli"]}
                    ),
                )
            ]
            worker.join(timeout=300)
            assert not worker.is_alive()

        for result in outcome["thread"]:
            expected = reference[result.reversible.num_lines]
            assert result.reversible.gates == expected.reversible.gates
        for n, gates in zip(process_sizes, outcome["process"]):
            assert gates == list(reference[n].reversible.gates)
        for entry in tmp_path.glob("*.json"):
            payload = json.loads(entry.read_text())
            assert payload["format"] == DISK_FORMAT


class TestSharedCacheSemantics:
    def test_full_tier_keeps_the_fresh_insert(self, monkeypatch):
        """A put into a full memory tier evicts the least recently
        used entry, never the one just inserted."""
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 4)
        cache = PassCache()
        for index in range(4):
            cache.put(f"key{index}", {"function": None}, {})
        cache.put("fresh", {"function": None}, {})
        assert len(cache) == 4
        assert cache.get("fresh") is not None
        assert cache.get("key0") is None
        assert cache.stats()["memory_evictions"] == 1

    def test_memory_lru_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 2)
        cache = PassCache()
        cache.put("hot", {"function": None}, {})
        cache.put("other", {"function": None}, {})
        assert cache.get("hot") is not None  # now the most recent
        cache.put("another", {"function": None}, {})
        assert cache.get("hot") is not None
        assert cache.get("another") is not None
        assert cache.get("other") is None

    def test_nested_apply_on_shared_cache_does_not_deadlock(self):
        """A pass whose run() itself drives the same cache (a nested
        flow) must not deadlock on the cache's lock."""
        cache = PassCache()
        perm = generators.hwb(4)
        from repro.pipeline import SynthesisPass

        class NestingSynthesis(SynthesisPass):
            def run(self, state):
                inner = Pipeline(cache=cache)
                inner.apply(SynthesisPass("tbs"), state)
                return super().run(state)

        pipeline = Pipeline(cache=cache)
        state, record = pipeline.apply(
            NestingSynthesis("tbs"), FlowState(function=perm)
        )
        assert state.reversible is not None
        assert not record.cache_hit


class TestConcurrentWriters:
    def test_racing_spills_leave_whole_entries(self, tmp_path):
        """Many threads rewriting the same keys: the atomic replace +
        generation stamp must leave only complete entry files."""
        cache = PassCache(path=str(tmp_path))

        def writer(worker_id):
            for round_ in range(20):
                key = f"key-{round_ % 5}"
                cache.put(key, {"function": None}, {"worker": worker_id})
                cache.get(key)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 5
        generations = set()
        for entry in entries:
            payload = json.loads(entry.read_text())
            assert payload["format"] == DISK_FORMAT
            generations.add(tuple(payload["gen"]))
        assert len(generations) == 5  # every survivor a distinct stamp
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_racing_spills_leave_disk_usage_accurate(self, tmp_path):
        """Spills racing on the same new keys: one scan of the
        directory reports exactly the entries and bytes on disk."""
        cache = PassCache(path=str(tmp_path))

        def writer(worker_id):
            for index in range(50):
                cache.put(
                    f"key-{index}", {"function": None}, {"w": worker_id}
                )

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        real_entries = list(tmp_path.glob("*.json"))
        assert len(real_entries) == 50
        assert cache.disk_usage() == (
            50,
            sum(f.stat().st_size for f in real_entries),
        )
        assert cache.stats()["disk_evictions"] == 0  # puts never evict
