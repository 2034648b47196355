"""Sessions: batched compilation, sweeps, shared and persistent caches."""

import re
from concurrent.futures import ProcessPoolExecutor

import pytest

import _hand_wired as hand_wired
from _helpers import toffoli_gates

import repro
from repro.compiler import CompilerSession, targets
from repro.pipeline import PassCache, PipelineError
from repro.revkit import generators


class TestBatch:
    def test_order_preserved(self):
        session = CompilerSession(
            target="toffoli", cache=PassCache(), max_workers=4
        )
        results = [
            point.result for point in session.sweep({"hwb": [3, 4, 5] * 2})
        ]
        assert len(results) == 6
        sizes = [r.reversible.num_lines for r in results]
        assert sizes == [3, 4, 5, 3, 4, 5]
        # first and second round are identical objects content-wise
        for first, second in zip(results[:3], results[3:]):
            assert first.reversible.gates == second.reversible.gates

    def test_batch_shares_cache(self):
        cache = PassCache()
        session = CompilerSession(target="toffoli", cache=cache)
        session.sweep({"hwb": [4] * 4})
        stats = session.cache_stats()
        assert stats["hits"] > 0
        # a repeated batch replays everything
        swept = session.sweep({"hwb": [4] * 2})
        assert all(
            p.result.cache_hits == len(p.result.records) for p in swept
        )

    def test_empty_batch(self):
        assert len(CompilerSession(cache=None).sweep({"hwb": []})) == 0

    @pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2"])
    def test_invalid_max_workers_refused_upfront(self, workers):
        with pytest.raises(PipelineError, match=re.escape(repr(workers))):
            CompilerSession(max_workers=workers)


class TestSweep:
    def test_sweep_is_deterministic_and_cache_hits_on_repeat(self):
        grid = {
            "hwb": [3, 4],
            "synthesis": ["tbs", "tbs-bidir"],
            "optimization_level": [1, 2],
        }
        # serial execution makes the within-sweep hit pattern exact
        session = CompilerSession(cache=PassCache(), max_workers=1)
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
        grid = {"hwb": [3, 4], "synthesis": ["tbs", "tbs-bidir"]}
        serial = CompilerSession(cache=PassCache(), max_workers=1).sweep(grid)
        threaded = CompilerSession(cache=PassCache(), max_workers=4).sweep(
            grid
        )
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
        session = CompilerSession(target="toffoli", cache=path)
        session.compile({"hwb": 4})
        other = CompilerSession(target="toffoli", cache=path)
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
        replay = CompilerSession(target="toffoli", cache=path).compile(
            {"hwb": 4}
        )
        assert replay.cache_hits == len(replay.records)
        assert list(replay.reversible.gates) == gates[1]


class TestSessionDefaults:
    def test_session_target_default(self):
        session = CompilerSession(target="clifford_t", cache=None)
        result = session.compile({"hwb": 4})
        _, _, optimized = hand_wired.eq5(generators.hwb(4))
        assert result.circuit.gates == optimized.gates

    def test_per_call_target_override(self, paper_pi):
        session = CompilerSession(target="toffoli", cache=None)
        mct = session.compile(paper_pi)
        ct = session.compile(paper_pi, target=targets.QSHARP)
        assert mct.circuit is None
        assert ct.circuit is not None
