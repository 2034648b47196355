"""Compiler facade overhead, sweep caching, async execution (PR 3/4).

Obligations of the `repro.compile()` front door:

* **Overhead** — the facade (workload detection + target resolution +
  result bundling) adds < 5% wall-clock over running the pass list it
  resolves to directly,
  `Pipeline(cache=None).run(CLIFFORD_T.flow({"hwb": 4}))`, measured
  cache-off so the comparison is real compute on both sides.
* **Sweep caching** — a `CompilerSession.sweep` over 8 parameter
  points with the shared pass cache beats the same sweep cold
  (cache=None), because repeated sub-flows (shared generation /
  synthesis prefixes) replay instead of recompute; a repeated sweep
  replays everything.
* **Async + bounded cache** — `sweep_async` over 24 parameter points
  on a warm disk-backed cache beats the sequential cold sweep
  (combined caching + overlapped-execution win; on a single-core
  runner the overlap itself is GIL-bound, so the margin is carried by
  the warm tier), and an explicit `gc(max_entries=8)` sweep (< 24
  points) records evictions while a re-sweep still compiles every
  point gate-for-gate identically.
* **Emitter matrix (PR 5)** — one compiled workload renders in every
  format registered with `repro.emit`; per-format timings land in
  `BENCH_compiler.json` `extra_info` (`emit_<format>_s`) and the
  qasm2 output must parse back gate-for-gate (the round-trip
  obligation of the registry refactor).
* **Resilience overhead (PR 6)** — running the same warm eq5 sweep
  with the deadline + retry wrappers enabled (a second session built
  with `job_timeout=` and `retry=` on the same `PassCache`) costs
  < 2% wall-clock over the plain warm sweep, and the
  results stay gate-identical; the measured overhead lands in
  `extra_info` (`resilience_overhead`).
* **Verification overhead (PR 7)** — the same warm eq5 sweep with
  `verify="auto"` costs < 15% wall-clock over verify-off, every
  point verifies with each pass record naming its tier, and the
  measured overhead (plus the first fully-checked sweep) lands in
  `extra_info` (`verify_overhead`, `verify_first_sweep_s`).

Timing asserts are skipped on shared CI runners (`CI` env var) where
timers are too noisy; CI still smokes both paths and uploads the
`BENCH_compiler.json` baseline (including the async/eviction numbers
in `extra_info`).
"""

import asyncio
import os
import time

from conftest import report

import repro
from repro import emit
from repro.compiler import CompilerSession
from repro.compiler.target import CLIFFORD_T
from repro.pipeline import PassCache, Pipeline

SWEEP_GRID = {
    "hwb": [3, 4],
    "synthesis": ["tbs", "tbs-bidir"],
    "optimization_level": [1, 2],
}


def _best_of(fn, rounds=5):
    """Return the best wall-clock of ``rounds`` runs of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_facade():
    return repro.compile({"hwb": 4}, target="clifford_t", cache=None)


def run_hand_wired():
    return Pipeline(cache=None).run(CLIFFORD_T.flow({"hwb": 4}))


def test_facade_overhead(benchmark):
    facade = benchmark(run_facade)
    direct = run_hand_wired()
    assert facade.circuit.gates == direct.quantum.gates

    facade_s = _best_of(run_facade)
    direct_s = _best_of(run_hand_wired)
    overhead = facade_s / direct_s - 1.0

    report(
        "compile() facade vs Pipeline.run of the resolved flow",
        [
            ("hand-wired best", f"{direct_s * 1e3:.2f}ms"),
            ("facade best", f"{facade_s * 1e3:.2f}ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
            ("gate-for-gate", facade.circuit.gates == direct.quantum.gates),
        ],
    )
    if benchmark.enabled and not os.environ.get("CI"):
        assert overhead < 0.05, (
            f"facade overhead {overhead * 100:.2f}% exceeds 5%"
        )


def run_sweep_cold():
    session = CompilerSession(cache=None, max_workers=1)
    return session.sweep(SWEEP_GRID)


def test_sweep_with_cache_vs_cold(benchmark):
    cold_s = _best_of(run_sweep_cold, rounds=3)

    def run_sweep_cached():
        session = CompilerSession(cache=PassCache(), max_workers=1)
        first = session.sweep(SWEEP_GRID)
        second = session.sweep(SWEEP_GRID)
        return first, second, session

    (first, second, session) = benchmark(run_sweep_cached)
    warm_started = time.perf_counter()
    repeat = session.sweep(SWEEP_GRID)
    warm_s = time.perf_counter() - warm_started

    assert len(first) == 8
    # >= 1 cache hit per repeated sub-flow: after the first point of
    # each hwb size, the generation stage always replays
    assert first.cache_hits >= len(first) - 2
    # a repeated sweep replays every pass of every point
    assert all(
        point.result.cache_hits == len(point.result.records)
        for point in second
    )
    for cold_point, cached_point in zip(run_sweep_cold(), second):
        assert (
            cold_point.result.circuit.gates
            == cached_point.result.circuit.gates
        )

    report(
        "CompilerSession.sweep: 8 points, shared cache vs cold",
        [
            ("cold sweep best", f"{cold_s * 1e3:.2f}ms"),
            ("warm (all-replay) sweep", f"{warm_s * 1e3:.2f}ms"),
            ("speedup", f"{cold_s / warm_s:.1f}x"),
            ("first-sweep cache hits", first.cache_hits),
            ("cache stats", session.cache_stats()),
        ],
    )
    if benchmark.enabled and not os.environ.get("CI"):
        assert warm_s < cold_s, "cached sweep should beat cold sweep"


#: 2 (sizes) x 2 (synthesis) x 3 (levels) x 2 (mapping) = 24 points.
ASYNC_SWEEP_GRID = {
    "hwb": [3, 4],
    "synthesis": ["tbs", "tbs-bidir"],
    "optimization_level": [0, 1, 2],
    "relative_phase": [True, False],
}


def test_async_sweep_and_bounded_cache(benchmark, tmp_path):
    # sequential cold reference: one point at a time, no cache
    sequential = CompilerSession(cache=None, max_workers=1)
    baseline = sequential.sweep(ASYNC_SWEEP_GRID)
    assert len(baseline) == 24
    sequential_cold_s = _best_of(
        lambda: sequential.sweep(ASYNC_SWEEP_GRID), rounds=2
    )

    # async sweep over a warm disk-backed cache
    cache = PassCache(path=str(tmp_path / "warm"))
    session = CompilerSession(cache=cache, max_workers=8)
    session.sweep(ASYNC_SWEEP_GRID)  # warm both tiers

    def run_async_warm():
        # max_workers=8 also bounds the jobs in flight
        return asyncio.run(session.sweep_async(ASYNC_SWEEP_GRID))

    swept = benchmark(run_async_warm)
    async_warm_s = _best_of(run_async_warm, rounds=3)

    # deterministic order and gate-for-gate agreement with sequential
    assert [p.params for p in swept] == [p.params for p in baseline]
    for cold_point, warm_point in zip(baseline, swept):
        assert (
            cold_point.result.circuit.gates
            == warm_point.result.circuit.gates
        )

    # a gc sweep down to 8 entries (< sweep size) must evict, and a
    # re-sweep by a fresh instance (empty memory tier, so it reads the
    # 8 survivors and recomputes the rest) must still compile every
    # point correctly
    bounded = PassCache(path=str(tmp_path / "bounded"))
    bounded_session = CompilerSession(cache=bounded, max_workers=8)
    asyncio.run(bounded_session.sweep_async(ASYNC_SWEEP_GRID))
    gc_report = bounded.gc(max_entries=8)
    bounded_stats = bounded.stats()
    assert bounded_stats["evictions"] > 0
    assert bounded.disk_usage()[0] <= 8
    bounded_sweep = asyncio.run(
        CompilerSession(
            cache=PassCache(path=bounded.path), max_workers=8
        ).sweep_async(ASYNC_SWEEP_GRID)
    )
    for cold_point, bounded_point in zip(baseline, bounded_sweep):
        assert (
            cold_point.result.circuit.gates
            == bounded_point.result.circuit.gates
        )

    speedup = sequential_cold_s / async_warm_s
    benchmark.extra_info["points"] = len(baseline)
    benchmark.extra_info["sequential_cold_s"] = sequential_cold_s
    benchmark.extra_info["async_warm_s"] = async_warm_s
    benchmark.extra_info["speedup_vs_sequential"] = speedup
    benchmark.extra_info["bounded_max_entries"] = 8
    benchmark.extra_info["bounded_evictions"] = bounded_stats["evictions"]
    benchmark.extra_info["bounded_disk_evictions"] = bounded_stats[
        "disk_evictions"
    ]
    benchmark.extra_info["bounded_disk_bytes"] = gc_report["bytes"]

    report(
        "sweep_async: 24 points, warm cache vs sequential cold",
        [
            ("sequential cold best", f"{sequential_cold_s * 1e3:.2f}ms"),
            ("async warm best", f"{async_warm_s * 1e3:.2f}ms"),
            ("speedup", f"{speedup:.1f}x"),
            ("bounded evictions", bounded_stats["evictions"]),
            ("bounded disk entries", gc_report["entries"]),
            ("gate-for-gate (warm+bounded)", True),
        ],
    )
    if benchmark.enabled and not os.environ.get("CI"):
        assert async_warm_s < sequential_cold_s, (
            f"async warm sweep ({async_warm_s * 1e3:.1f}ms) should beat "
            f"sequential cold ({sequential_cold_s * 1e3:.1f}ms)"
        )


def test_resilience_overhead(benchmark):
    """Deadline + retry wrappers must be nearly free on the hot path.

    Obligations (PR 6): a warm eq5 sweep run by a session built with
    `job_timeout=` and `retry=` over the same `PassCache` stays
    gate-identical to the plain session's warm sweep and
    costs < 2% extra wall-clock; the measured numbers land in the
    committed `BENCH_compiler.json` (`extra_info["resilience_overhead"]`
    with the plain/wrapped timings alongside).
    """
    cache = PassCache()
    session = CompilerSession(cache=cache, max_workers=1)
    wrapped_session = CompilerSession(
        cache=cache, max_workers=1, job_timeout=60, retry=2
    )
    plain = session.sweep(SWEEP_GRID)  # warm the cache
    assert len(plain) == 8

    def run_warm_plain():
        return session.sweep(SWEEP_GRID)

    def run_warm_wrapped():
        return wrapped_session.sweep(SWEEP_GRID)

    wrapped = benchmark(run_warm_wrapped)
    # wrappers are behaviorally invisible: same points, same gates
    assert [p.params for p in wrapped] == [p.params for p in plain]
    for plain_point, wrapped_point in zip(plain, wrapped):
        assert (
            plain_point.result.circuit.gates
            == wrapped_point.result.circuit.gates
        )

    # interleave the two measurements so clock drift and cache-state
    # luck hit both sides equally — the overhead itself is tiny, so
    # the comparison must not be
    plain_s = wrapped_s = float("inf")
    for _ in range(15):
        started = time.perf_counter()
        run_warm_plain()
        plain_s = min(plain_s, time.perf_counter() - started)
        started = time.perf_counter()
        run_warm_wrapped()
        wrapped_s = min(wrapped_s, time.perf_counter() - started)
    overhead = wrapped_s / plain_s - 1.0

    benchmark.extra_info["warm_plain_s"] = plain_s
    benchmark.extra_info["warm_wrapped_s"] = wrapped_s
    benchmark.extra_info["resilience_overhead"] = overhead

    report(
        "resilience wrappers on a warm eq5 sweep (deadline + retry)",
        [
            ("warm plain best", f"{plain_s * 1e3:.2f}ms"),
            ("warm wrapped best", f"{wrapped_s * 1e3:.2f}ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
            ("gate-for-gate", True),
        ],
    )
    if benchmark.enabled and not os.environ.get("CI"):
        assert overhead < 0.02, (
            f"resilience overhead {overhead * 100:.2f}% exceeds 2%"
        )


def test_verify_overhead(benchmark):
    """Tiered verification must stay cheap on the warm path.

    Obligations (PR 7): a warm eq5 sweep compiled with
    `verify="auto"` costs < 15% extra wall-clock over the same warm
    sweep with verification off, stays gate-identical, and every
    point comes back `verified` with each pass record naming its
    tier.  The steady state rides the cache's `verified` flag — an
    entry checked once replays as tier `cache` — while the first
    verified sweep (real tier checks on every replay) is recorded
    separately in `extra_info["verify_first_sweep_s"]`.
    """
    cache = PassCache()
    plain_session = CompilerSession(cache=cache, max_workers=1)
    verified_session = CompilerSession(
        cache=cache, max_workers=1, verify="auto"
    )
    plain = plain_session.sweep(SWEEP_GRID)  # warm the cache unverified
    assert len(plain) == 8

    started = time.perf_counter()
    verified = verified_session.sweep(SWEEP_GRID)
    first_verified_s = time.perf_counter() - started

    # verification is behaviorally invisible: same points, same gates
    assert [p.params for p in verified] == [p.params for p in plain]
    for plain_point, verified_point in zip(plain, verified):
        assert (
            plain_point.result.circuit.gates
            == verified_point.result.circuit.gates
        )
        assert verified_point.result.verified
        for record in verified_point.result.records:
            assert record.verification is not None
            assert record.verification.tier

    def run_warm_plain():
        return plain_session.sweep(SWEEP_GRID)

    def run_warm_verified():
        return verified_session.sweep(SWEEP_GRID)

    benchmark(run_warm_verified)

    # interleave the measurements so clock drift hits both sides
    plain_s = verified_s = float("inf")
    for _ in range(15):
        started = time.perf_counter()
        run_warm_plain()
        plain_s = min(plain_s, time.perf_counter() - started)
        started = time.perf_counter()
        run_warm_verified()
        verified_s = min(verified_s, time.perf_counter() - started)
    overhead = verified_s / plain_s - 1.0

    tiers = sorted(
        {
            record.verification.tier
            for point in verified
            for record in point.result.records
        }
    )
    benchmark.extra_info["warm_plain_s"] = plain_s
    benchmark.extra_info["warm_verified_s"] = verified_s
    benchmark.extra_info["verify_first_sweep_s"] = first_verified_s
    benchmark.extra_info["verify_overhead"] = overhead
    benchmark.extra_info["verify_tiers"] = tiers

    report(
        "tiered verification on a warm eq5 sweep (verify=auto)",
        [
            ("warm plain best", f"{plain_s * 1e3:.2f}ms"),
            ("warm verified best", f"{verified_s * 1e3:.2f}ms"),
            ("first verified sweep", f"{first_verified_s * 1e3:.2f}ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
            ("tiers used", ", ".join(tiers)),
            ("all points verified", True),
        ],
    )
    if benchmark.enabled and not os.environ.get("CI"):
        assert overhead < 0.15, (
            f"tiered-verify overhead {overhead * 100:.2f}% exceeds 15%"
        )


def test_emitter_matrix(benchmark):
    """Render one compiled workload in every registered format.

    Obligations: every `repro.emit.formats()` backend emits the hwb4
    Clifford+T circuit, the per-format wall-clock lands in the
    committed `BENCH_compiler.json` (`extra_info["emit_<format>_s"]`),
    and the qasm2 text re-imports gate-for-gate (round-trip).
    """
    result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
    circuit = result.circuit
    formats = emit.formats()

    def run_matrix():
        return {name: emit.emit(circuit, name) for name in formats}

    texts = benchmark(run_matrix)
    assert set(texts) == set(formats)
    assert all(texts.values())

    rows = []
    for name in formats:
        per_format_s = _best_of(lambda: emit.emit(circuit, name))
        benchmark.extra_info[f"emit_{name}_s"] = per_format_s
        rows.append(
            (f"emit {name}", f"{per_format_s * 1e6:.0f}us "
             f"({len(texts[name].splitlines())} lines)")
        )

    reimported = emit.parse(texts["qasm2"], "qasm2")
    assert reimported.gates == circuit.gates
    assert emit.emit(reimported, "qasm2") == texts["qasm2"]
    rows.append(("qasm2 round-trip", "gate-for-gate"))

    report(
        f"emitter matrix: hwb4 Clifford+T x {len(formats)} formats",
        rows,
    )
