"""Sessions: batched compilation, sweeps, shared and persistent caches."""

import asyncio
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

import _hand_wired as hand_wired
from _helpers import toffoli_gates

import repro
from repro.boolean.permutation import BitPermutation
from repro.compiler import CompilerSession, Target, targets
from repro.pipeline import PassCache, PipelineError
from repro.revkit import generators
from repro.synthesis.transformation import transformation_based_synthesis


class TestBatch:
    def test_order_preserved(self):
        session = CompilerSession(cache=PassCache())
        grid = {"hwb": [3, 4, 5] * 2, "target": ["toffoli"]}
        results = [point.result for point in session.sweep(grid)]
        assert len(results) == 6
        sizes = [r.reversible.num_lines for r in results]
        assert sizes == [3, 4, 5, 3, 4, 5]
        # first and second round are identical objects content-wise
        for first, second in zip(results[:3], results[3:]):
            assert first.reversible.gates == second.reversible.gates

    def test_batch_shares_cache(self):
        cache = PassCache()
        session = CompilerSession(cache=cache)
        session.sweep({"hwb": [4] * 4, "target": ["toffoli"]})
        stats = session.cache_stats()
        assert stats["hits"] > 0
        # a repeated batch replays everything
        swept = session.sweep({"hwb": [4] * 2, "target": ["toffoli"]})
        assert all(
            p.result.cache_hits == len(p.result.records) for p in swept
        )

    def test_empty_batch(self):
        assert len(CompilerSession(cache=None).sweep({"hwb": []})) == 0

    def test_point_error_propagates_unwrapped(self):
        session = CompilerSession(cache=None)
        with pytest.raises(TypeError, match="workload"):
            session.sweep({"optimization_level": [0, 1]}, base=object())

    def test_unknown_target_propagates_unwrapped(self):
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="unknown target"):
            session.sweep({"hwb": [3], "target": ["warp"]})

    def test_points_run_in_order_on_the_calling_thread(self):
        seen = []

        def recording_synthesis(perm):
            seen.append((perm.num_bits, threading.current_thread()))
            return transformation_based_synthesis(perm)

        target = Target(
            name="recording",
            description="records where each point's synthesis runs",
            gate_set=targets.MCT_GATES,
            optimization_level=0,
            synthesis=recording_synthesis,
        )
        session = CompilerSession(cache=None)
        session.sweep({"hwb": [4, 3, 5], "target": [target]})
        caller = threading.current_thread()
        assert seen == [(4, caller), (3, caller), (5, caller)]

    def test_first_failing_point_stops_the_sweep(self):
        started = []

        def tracking_synthesis(perm):
            started.append(perm)
            return transformation_based_synthesis(perm)

        def failing_synthesis(perm):
            raise TypeError("synthesis refused")

        target = Target(
            name="tracking",
            description="records which points ever started",
            gate_set=targets.MCT_GATES,
            optimization_level=0,
            synthesis=tracking_synthesis,
        )
        session = CompilerSession(cache=None)
        grid = {"synthesis": [tracking_synthesis, failing_synthesis]
                + [tracking_synthesis] * 4, "target": [target]}
        with pytest.raises(TypeError, match="synthesis refused"):
            session.sweep(grid, base=BitPermutation(range(8)))
        # the points after the failing one never start
        assert len(started) == 1


class TestSweep:
    def test_sweep_is_deterministic_and_cache_hits_on_repeat(self):
        grid = {
            "hwb": [3, 4],
            "synthesis": ["tbs", "tbs-bidir"],
            "optimization_level": [1, 2],
        }
        # points run one after another: the within-sweep hit pattern
        # is exact
        session = CompilerSession(cache=PassCache())
        first = session.sweep(grid)
        assert len(first) == 8
        # every repeated sub-flow replays: after the first point of
        # each hwb size, the shared generation stage is a cache hit,
        # and repeated (generate, synthesize) prefixes hit too
        seen_sizes = set()
        for point in first:
            generate = point.result.record("revgen-hwb")
            assert generate.cache_hit == (point.params["hwb"] in seen_sizes)
            seen_sizes.add(point.params["hwb"])
        assert first.cache_hits >= len(first) - len(seen_sizes)
        # a second identical sweep replays every pass of every point
        second = session.sweep(grid)
        assert all(
            point.result.cache_hits == len(point.result.records)
            for point in second
        )
        # determinism: same params, same circuits, same order
        assert [p.params for p in first] == [p.params for p in second]
        for a, b in zip(first, second):
            assert a.result.circuit.gates == b.result.circuit.gates

    def test_threaded_sweep_matches_serial(self):
        # the library runs no threads of its own, but callers may: the
        # cache's lock lets sweeps on several threads share one cache
        grid = {"hwb": [3, 4], "synthesis": ["tbs", "tbs-bidir"]}
        serial = CompilerSession(cache=PassCache()).sweep(grid)
        session = CompilerSession(cache=PassCache())
        swept, errors = [None] * 4, []

        def run(slot):
            try:
                swept[slot] = session.sweep(grid)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for threaded in swept:
            assert [p.params for p in serial] == [p.params for p in threaded]
            for a, b in zip(serial, threaded):
                assert a.result.circuit.gates == b.result.circuit.gates

    def test_sweep_point_translation(self, paper_pi):
        session = CompilerSession(cache=None)
        result = session.sweep(
            {"synthesis": ["tbs", "dbs"]}, base=paper_pi
        )
        assert [p.params["synthesis"] for p in result] == ["tbs", "dbs"]
        assert result.points[0].result.record("tbs")
        assert result.points[1].result.record("dbs")

    def test_sweep_best_and_table(self):
        session = CompilerSession(cache=PassCache())
        result = session.sweep(
            {"hwb": [3, 4], "synthesis": ["tbs", "tbs-bidir"]}
        )
        best = result.best("t_count")
        assert best.params["hwb"] == 3
        assert "t_count=" in result.table("t_count")

    def test_sweep_unknown_key_rejected(self):
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="unknown sweep parameter"):
            session.sweep({"hwb": [3], "flux_capacitor": [1]})

    def test_sweep_without_workload_rejected(self):
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="selects no workload"):
            session.sweep({"synthesis": ["tbs"]})

    def test_sweep_rejects_out_of_range_level(self):
        # level 3 used to act as level 2, mislabeling the point
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="optimization_level"):
            session.sweep({"hwb": [3], "optimization_level": [3]})

    def test_sweep_target_by_name(self, paper_pi):
        session = CompilerSession(cache=None)
        result = session.sweep(
            {"target": ["toffoli", "qsharp"]}, base=paper_pi
        )
        assert result.points[0].result.circuit is None
        assert result.points[1].result.circuit is not None


class TestSweepInsideARunningLoop:
    """A sweep is a plain call: it blocks and returns even when the
    calling thread is already running an event loop (a notebook, an
    async server), and it never touches that thread's loop."""

    def test_sweep_from_a_running_loop(self):
        session = CompilerSession(cache=PassCache())

        async def story():
            return session.sweep({"hwb": [3, 4]})

        swept = asyncio.run(story())
        assert [p.params for p in swept] == [{"hwb": 3}, {"hwb": 4}]
        for n, point in zip((3, 4), swept):
            alone = session.compile({"hwb": n})
            assert point.result.reversible.gates == alone.reversible.gates

    def test_sweep_leaves_the_thread_event_loop_alone(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            session = CompilerSession(cache=None)
            session.sweep({"hwb": [3]})
            assert asyncio.get_event_loop_policy().get_event_loop() is loop
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def test_errors_inside_a_running_loop_propagate_unwrapped(self):
        session = CompilerSession(cache=None)

        async def story():
            session.sweep({"optimization_level": [0, 1]}, base=object())

        with pytest.raises(TypeError, match="workload"):
            asyncio.run(story())


class TestPersistentCache:
    def test_disk_cache_reloads_across_instances(self, tmp_path):
        path = tmp_path / "pass-cache"
        first = repro.compile(
            {"hwb": 4}, target="clifford_t", cache=str(path)
        )
        assert first.cache_hits == 0
        assert list(path.glob("*.json"))
        # a brand-new cache instance (fresh process in real life)
        # replays the whole flow from disk
        second = repro.compile(
            {"hwb": 4}, target="clifford_t", cache=str(path)
        )
        assert second.cache_hits == len(second.records)
        assert second.circuit.gates == first.circuit.gates
        assert (
            second.statistics.as_dict() == first.statistics.as_dict()
        )

    def test_disk_cache_through_session(self, tmp_path):
        path = str(tmp_path / "session-cache")
        session = CompilerSession(cache=path)
        session.compile({"hwb": 4})
        other = CompilerSession(cache=path)
        result = other.compile({"hwb": 4})
        assert result.cache_hits == len(result.records)
        assert other.cache_stats()["disk_hits"] > 0

    def test_disk_entries_survive_routing_results(self, tmp_path, paper_pi):
        path = str(tmp_path / "routed")
        first = repro.compile(paper_pi, target="ibm_qe5", cache=path)
        second = repro.compile(paper_pi, target="ibm_qe5", cache=path)
        replay = repro.compile(
            paper_pi, target="ibm_qe5", cache=PassCache(path=path)
        )
        assert second.circuit.gates == first.circuit.gates
        assert replay.cache_hits == len(replay.records)
        assert (
            replay.routing.final_layout == first.routing.final_layout
        )

    def test_corrupt_disk_entry_is_ignored(self, tmp_path):
        path = tmp_path / "corrupt"
        repro.compile({"hwb": 3}, target="toffoli", cache=str(path))
        for entry in path.glob("*.json"):
            entry.write_text("{not json")
        result = repro.compile(
            {"hwb": 3}, target="toffoli", cache=str(path)
        )
        assert result.cache_hits == 0
        assert result.reversible is not None

    def test_pass_cache_drop_removes_disk_entry(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        cache.put("k", {"function": None}, {})
        assert cache.get("k") is not None
        cache.drop("k")
        cache_fresh = PassCache(path=str(tmp_path))
        assert cache_fresh.get("k") is None

    def test_clear_disk(self, tmp_path):
        cache = PassCache(path=str(tmp_path))
        cache.put("k", {"function": None}, {})
        # clear(disk=True) only deletes content-named entry files
        bystander = tmp_path / "user-data.json"
        bystander.write_text("{}")
        cache.clear(disk=True)
        assert list(tmp_path.glob("*.json")) == [bystander]


class TestDiskTierAcrossProcesses:
    def test_worker_processes_feed_a_fresh_session(self, tmp_path):
        path = str(tmp_path / "procs")
        with ProcessPoolExecutor(max_workers=2) as pool:
            gates = list(pool.map(toffoli_gates, [3, 4], [path] * 2))
        # the disk tier the workers fed serves this process in full
        replay = CompilerSession(cache=path).compile(
            {"hwb": 4}, target="toffoli"
        )
        assert replay.cache_hits == len(replay.records)
        assert list(replay.reversible.gates) == gates[1]


class TestSessionDefaults:
    def test_session_target_default(self):
        # no target: the library default, clifford_t
        session = CompilerSession(cache=None)
        result = session.compile({"hwb": 4})
        _, _, optimized = hand_wired.eq5(generators.hwb(4))
        assert result.circuit.gates == optimized.gates

    def test_per_call_target_override(self, paper_pi):
        session = CompilerSession(cache=None)
        mct = session.compile(paper_pi, target="toffoli")
        ct = session.compile(paper_pi, target=targets.QSHARP)
        assert mct.circuit is None
        assert ct.circuit is not None
