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
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from _helpers import toffoli_gates

import repro
from repro.compiler import CompilerSession
from repro.pipeline import FlowState, PassCache, Pipeline, SimplifyPass
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


class TestThreadStress:
    def test_hammered_bounded_cache_stays_correct(self, tmp_path):
        cache = PassCache(maxsize=4, path=str(tmp_path))
        session = CompilerSession(
            target="clifford_t", cache=cache, max_workers=8
        )
        reference = {n: _reference(n) for n in (3, 4)}
        with _sweeping(cache):
            swept = session.sweep({"hwb": [3, 4] * 8})
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
        thread_session = CompilerSession(
            target="toffoli", cache=thread_cache, max_workers=4
        )
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
                for point in thread_session.sweep({"hwb": [3, 4] * 4})
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


class TestInFlightProtection:
    def test_gc_may_evict_an_inflight_entry(self, tmp_path):
        """Nothing is pinned: a sweep under a running leader takes its
        entry too, and the leader's store puts it back."""
        cache = PassCache(path=str(tmp_path))
        cache.put("busy", {"function": None}, {})
        cache.put("idle", {"function": None}, {})
        role, _event = cache.begin_compute("busy")
        assert role == "leader"
        try:
            swept = cache.gc(max_entries=0)
            assert swept["evicted"] == 2
            assert cache.disk_usage() == (0, 0)
            # another process now misses and would recompute
            assert PassCache(path=str(tmp_path)).get("busy") is None
            cache.put("busy", {"function": None}, {"again": True})
        finally:
            cache.end_compute("busy")
        reread = PassCache(path=str(tmp_path)).get("busy")
        assert reread is not None and reread[1] == {"again": True}
        assert cache.begin_compute("busy")[0] == "leader"  # released
        cache.end_compute("busy")

    def test_full_tier_keeps_the_fresh_insert(self):
        """A put into a full memory tier evicts the least recently
        used entry, never the one just inserted."""
        cache = PassCache(maxsize=4)
        for index in range(4):
            cache.put(f"key{index}", {"function": None}, {})
        cache.put("fresh", {"function": None}, {})
        assert len(cache) == 4
        assert cache.get("fresh") is not None
        assert cache.get("key0", count_miss=False) is None
        assert cache.stats()["memory_evictions"] == 1

    def test_memory_lru_hit_refreshes_recency(self):
        cache = PassCache(maxsize=2)
        cache.put("hot", {"function": None}, {})
        cache.put("other", {"function": None}, {})
        assert cache.get("hot") is not None  # now the most recent
        cache.put("another", {"function": None}, {})
        assert cache.get("hot") is not None
        assert cache.get("another") is not None
        assert cache.get("other", count_miss=False) is None

    def test_single_flight_runs_concurrent_identical_passes_once(self):
        class SlowSimplify(SimplifyPass):
            calls = 0
            _lock = threading.Lock()

            def run(self, state):
                with SlowSimplify._lock:
                    SlowSimplify.calls += 1
                time.sleep(0.05)
                return super().run(state)

        SlowSimplify.calls = 0
        perm = generators.hwb(4)
        from repro.pipeline import SynthesisPass

        seed = FlowState(function=perm)
        seed = SynthesisPass("tbs").run(seed)
        cache = PassCache()
        outputs = []

        def worker():
            pipeline = Pipeline(cache=cache)
            state, record = pipeline.apply(SlowSimplify(), seed)
            outputs.append((state.reversible.gates, record.cache_hit))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(outputs) == 4
        # the leader computed once; every follower replayed its entry
        assert SlowSimplify.calls == 1
        gates = {tuple(g for g in gates_) for gates_, _hit in outputs}
        assert len(gates) == 1
        assert sum(1 for _g, hit in outputs if hit) == 3
        # counter accounting: one logical miss (the leader's compute),
        # one hit per replayed follower — a follower's wait must not
        # log a spurious miss-then-hit pair
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_nested_apply_on_shared_cache_does_not_deadlock(self):
        """A pass whose run() itself drives the same cache (a nested
        flow) must not deadlock on the single-flight registry."""
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

    def test_follower_timeout_falls_back_to_computing(self, monkeypatch):
        """If the leader stalls past the single-flight timeout, the
        follower computes the pass itself instead of hanging."""
        from repro.pipeline import SynthesisPass, runner

        monkeypatch.setattr(runner, "SINGLE_FLIGHT_TIMEOUT", 0.01)
        cache = PassCache()
        seed = FlowState(function=generators.hwb(3))
        pipeline = Pipeline(cache=cache)
        key = pipeline._cache_key(SynthesisPass("tbs"), seed)
        role, _event = cache.begin_compute(key)
        assert role == "leader"

        stalled_result = {}

        def follower():
            state, record = Pipeline(cache=cache).apply(
                SynthesisPass("tbs"), seed
            )
            stalled_result["gates"] = state.reversible.gates
            stalled_result["hit"] = record.cache_hit

        thread = threading.Thread(target=follower)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        cache.end_compute(key)
        assert not stalled_result["hit"]
        assert stalled_result["gates"]

    def test_follower_recomputes_entry_evicted_before_reread(self):
        """The leader's entry is evicted before the waiting follower
        re-reads it: the follower claims the key and recomputes, and
        its outputs match the leader's gate for gate."""
        from repro.pipeline import SynthesisPass

        class EvictingCache(PassCache):
            def __init__(self):
                super().__init__()
                self.roles = []
                self.follower_waiting = threading.Event()

            def begin_compute(self, key):
                role, event = super().begin_compute(key)
                self.roles.append(role)
                if role == "follower":
                    self.follower_waiting.set()
                return role, event

            def put(self, *args, **kwargs):
                super().put(*args, **kwargs)
                self.clear()  # gone before the follower re-reads it

        cache = EvictingCache()

        class HeldSynthesis(SynthesisPass):
            def run(self, state):
                # the leader stores only once a follower is waiting
                assert cache.follower_waiting.wait(timeout=30)
                return super().run(state)

        seed = FlowState(function=generators.hwb(3))
        outcomes = []

        def apply():
            state, record = Pipeline(cache=cache).apply(
                HeldSynthesis("tbs"), seed
            )
            outcomes.append((state.reversible.gates, record.cache_hit))

        threads = [threading.Thread(target=apply) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.roles == ["leader", "follower", "leader"]
        reference = SynthesisPass("tbs").run(seed).reversible.gates
        assert outcomes == [(reference, False), (reference, False)]


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
