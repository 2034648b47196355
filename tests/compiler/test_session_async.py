"""Async session execution: ordering, bounds, cancellation, errors."""

import asyncio
import threading

import pytest

from repro.boolean.permutation import BitPermutation
from repro.compiler import CompilerSession, Target, targets
from repro.pipeline import PassCache, PipelineError
from repro.synthesis.transformation import transformation_based_synthesis


class TestBatchAsync:
    def test_results_follow_input_order(self):
        session = CompilerSession(
            target="toffoli", cache=PassCache(), max_workers=4
        )
        swept = asyncio.run(session.sweep_async({"hwb": [3, 4, 5] * 2}))
        sizes = [p.result.reversible.num_lines for p in swept]
        assert sizes == [3, 4, 5, 3, 4, 5]

    def test_empty_batch(self):
        session = CompilerSession(cache=None)
        assert len(asyncio.run(session.sweep_async({"hwb": []}))) == 0

    def test_usable_from_a_running_loop(self):
        session = CompilerSession(target="toffoli", cache=PassCache())

        async def story():
            # two overlapping batches on one loop, one shared cache
            first, second = await asyncio.gather(
                session.sweep_async({"hwb": [3]}),
                session.sweep_async({"hwb": [3]}),
            )
            return first.points[0].result, second.points[0].result

        one, other = asyncio.run(story())
        assert one.reversible.gates == other.reversible.gates

    def test_bounded_in_flight_concurrency(self):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def counting_synthesis(perm):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            try:
                return transformation_based_synthesis(perm)
            finally:
                with lock:
                    active["now"] -= 1

        target = Target(
            name="counting",
            description="synthesis with a concurrency probe",
            gate_set=targets.MCT_GATES,
            optimization_level=0,
            synthesis=counting_synthesis,
        )
        session = CompilerSession(target=target, cache=None, max_workers=2)
        swept = asyncio.run(session.sweep_async({"random": [3] * 8}))
        assert len(swept) == 8
        assert active["peak"] <= 2

    def test_exception_propagates_unwrapped(self):
        session = CompilerSession(target="toffoli", cache=None)
        with pytest.raises(TypeError, match="workload"):
            asyncio.run(
                session.sweep_async(
                    {"optimization_level": [0, 1]}, base=object()
                )
            )

    def test_pipeline_error_propagates_unwrapped(self):
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="unknown target"):
            asyncio.run(
                session.sweep_async({"hwb": [3], "target": ["warp"]})
            )

    def test_failure_cancels_remaining_jobs(self):
        started = []
        lock = threading.Lock()

        def tracking_synthesis(perm):
            with lock:
                started.append(perm)
            return transformation_based_synthesis(perm)

        def failing_synthesis(perm):
            raise TypeError("synthesis refused")

        target = Target(
            name="tracking",
            description="records which jobs ever started",
            gate_set=targets.MCT_GATES,
            optimization_level=0,
            synthesis=tracking_synthesis,
        )
        session = CompilerSession(target=target, cache=None, max_workers=1)
        grid = {"synthesis": [failing_synthesis] + [tracking_synthesis] * 16}
        with pytest.raises(TypeError, match="synthesis refused"):
            asyncio.run(
                session.sweep_async(grid, base=BitPermutation(range(8)))
            )
        # with the bad job first and one-at-a-time flight, the failure
        # cancels the queue before most of it ever starts
        assert len(started) < 16

    def test_cancellation_propagates(self):
        session = CompilerSession(
            target="clifford_t", cache=None, max_workers=1
        )

        async def cancel_midway():
            batch = asyncio.ensure_future(
                session.sweep_async({"hwb": [6] * 4})
            )
            await asyncio.sleep(0.01)
            batch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await batch

        asyncio.run(cancel_midway())


class TestSweepAsync:
    GRID = {"hwb": [3, 4], "synthesis": ["tbs", "tbs-bidir"]}

    def test_matches_sync_sweep(self):
        serial = CompilerSession(cache=PassCache(), max_workers=1).sweep(
            self.GRID
        )
        session = CompilerSession(cache=PassCache(), max_workers=4)
        swept = asyncio.run(session.sweep_async(self.GRID))
        assert [p.params for p in serial] == [p.params for p in swept]
        for a, b in zip(serial, swept):
            assert a.result.circuit.gates == b.result.circuit.gates

    def test_rejects_out_of_range_level(self):
        session = CompilerSession(cache=None)
        with pytest.raises(PipelineError, match="optimization_level"):
            asyncio.run(
                session.sweep_async({"hwb": [3], "optimization_level": [3]})
            )

    def test_shares_cache_with_sync_paths(self):
        cache = PassCache()
        session = CompilerSession(cache=cache, max_workers=4)
        asyncio.run(session.sweep_async(self.GRID))
        repeat = session.sweep(self.GRID)
        assert all(
            point.result.cache_hits == len(point.result.records)
            for point in repeat
        )


class TestSyncEntryPointsInsideALoop:
    """The sync batch calls drive the async core on a private loop,
    which cannot start inside a running one; there they must still
    block and return (on a helper thread)."""

    def test_sweep_from_a_running_loop(self):
        session = CompilerSession(
            target="toffoli", cache=PassCache(), max_workers=2
        )

        async def story():
            return session.sweep({"hwb": [3, 4]})

        swept = asyncio.run(story())
        assert [p.params for p in swept] == [{"hwb": 3}, {"hwb": 4}]
        for n, point in zip((3, 4), swept):
            alone = session.compile({"hwb": n})
            assert point.result.reversible.gates == alone.reversible.gates

    def test_sync_calls_leave_the_thread_event_loop_alone(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            session = CompilerSession(target="toffoli", cache=None)
            session.sweep({"hwb": [3]})
            assert asyncio.get_event_loop_policy().get_event_loop() is loop
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def test_errors_cross_the_helper_thread_unwrapped(self):
        session = CompilerSession(target="toffoli", cache=None)

        async def story():
            session.sweep({"optimization_level": [0, 1]}, base=object())

        with pytest.raises(TypeError, match="workload"):
            asyncio.run(story())
