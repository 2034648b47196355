#!/usr/bin/env python3
"""Paper-flow benchmark: four closed-loop workloads, spec to artifact.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eq5-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed job count twice on the same seed, untraced
and traced in turn, and reports the per-layer metrics.  The last line of
standard output is one JSON object; metric names and units come from
``BENCHMARK.json`` at the repository root.  Each traced run also writes
its spans as Chrome trace-event JSON under ``perfbench/traces/``.

Jobs are timed on the process's CPU clock and scaled to the host's
nominal speed by a reference load run between segments of jobs (see
``calibrate.py`` and ``README.md``).

The program is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
# One thread: BLAS helper threads would spin on the second core and bill
# their time to the job's CPU clock.  Set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
from tracing import LAYERS, Installed, Recorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: fresh-interpreter set-up measurements per run, spread over the run.
SETUP_PROBES = 5
#: the p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
#: a run stops waiting for MIN_SAMPLES samples at this multiple of
#: --seconds.
MAX_STRETCH = 2.0
#: untimed warm-up before measuring (lazy imports, per-process caches).
WARMUP_SECONDS = 1.0
#: least wall time between two host-speed calibrations.
SEGMENT_SECONDS = 0.25

#: the clock jobs are timed on.  Every job runs in this one thread, so
#: the process's CPU time is its service time; unlike wall time it
#: leaves out the stretches in which a shared host runs other work on
#: this CPU.  The calibration load is timed on the same clock.
job_clock = calibrate.clock

PASSES = ("revgen", "tbs", "revsimp", "rptm", "tpar", "cancel", "route", "ps")
VERIFY_TIERS = ("syntactic", "permutation", "specification", "stabilizer",
                "dense", "probes")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def probe(workload: str, seed: int) -> None:
    """What a fresh process does before its first job can start."""
    import repro  # noqa: F401

    wl = WORKLOADS[workload](seed)
    wl.resolve_registries()
    wl.prepare()
    wl.job(0)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> float:
    """CPU time (user + system) of one fresh interpreter running :func:`probe`.

    Set-up is single-threaded work like the jobs, and is timed on the
    same kind of clock.
    """
    started = _children_cpu()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT, timeout=120,
    )
    return _children_cpu() - started


# ----------------------------------------------------------------------
# job loop
# ----------------------------------------------------------------------
class Tally:
    """Latency samples, failures and output-quality rows of one pass."""

    def __init__(self) -> None:
        self.samples = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.quality = []

    def job(self, wl: Workload, ctx, index: int, rec=None) -> tuple:
        """Run, time and check job ``index``; return ``(seconds, ok)``."""
        job = wl.job(index)
        self.attempted += 1
        out = None
        if rec is not None:
            rec.active = True
            frame = rec.job(index)
        started = job_clock()
        try:
            out = wl.run(ctx, job)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            duration = job_clock() - started
            if rec is not None:
                rec.end_job(frame, hit=out is not None and out.hit)
                rec.active = False
        ok = out is not None and _checked(wl, ctx, job, out)
        self.busy += duration
        if not ok:
            self.failed += 1
            return duration, False
        self.samples.append(duration)
        if rec is not None or wl.counts_quality(job):
            self.quality.append(wl.quality(job, out))
        return duration, True


def _checked(wl: Workload, ctx, job, out) -> bool:
    try:
        ok = wl.check(ctx, job, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False
    if not ok:
        print(f"check failed: {wl.name} job {job.index} ({job.kind}, "
              f"{job.target})", file=sys.stderr)
    return ok


def warm_up(wl: Workload) -> None:
    """Run stream jobs untimed on a throwaway context, then discard it."""
    ctx = wl.prepare()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < WARMUP_SECONDS:
        wl.run(ctx, wl.job(index))
        index += 1


class Segment:
    """Jobs run back to back between two host-speed calibrations."""

    def __init__(self, slow_before: float) -> None:
        self.slow_before = slow_before
        self.slow_after = slow_before
        self.samples = []
        self.busy = 0.0

    @property
    def slowdown(self) -> float:
        """The host's slowdown over the segment: the mean of its ends."""
        return (self.slow_before + self.slow_after) / 2


def timed_run(wl: Workload, seconds: float) -> tuple:
    """Jobs in segments until ``seconds`` pass.

    The host's speed is calibrated between segments.  The set-up probes
    run between segments too, spread over the run; they are not scaled,
    since import-bound start-up does not slow down in step with the
    reference load.  Returns
    ``(tally, segments, probes)``.
    """
    ctx = wl.prepare()
    tally = Tally()
    segments, probes = [], []
    slow = calibrate.slowdown()
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if len(probes) < SETUP_PROBES and (
            elapsed >= len(probes) * seconds / SETUP_PROBES
        ):
            probes.append(setup_seconds(wl.name, wl.seed))
            slow = calibrate.slowdown()
            continue
        if segments and elapsed >= seconds and (
            len(tally.samples) >= MIN_SAMPLES or elapsed >= MAX_STRETCH * seconds
        ):
            break
        segment = Segment(slow)
        segment_started = time.perf_counter()
        while time.perf_counter() - segment_started < SEGMENT_SECONDS:
            duration, ok = tally.job(wl, ctx, index)
            segment.busy += duration
            if ok:
                segment.samples.append(duration)
            index += 1
        slow = segment.slow_after = calibrate.slowdown()
        segments.append(segment)
    # jobs the quality counts cover but the timed loop did not reach
    while index < wl.round_range(wl.quality_rounds - 1).stop:
        tally.job(wl, ctx, index)
        index += 1
    return tally, segments, probes


def traced_run(wl: Workload, jobs: int) -> tuple:
    """The same jobs untraced and traced, interleaved ABBA.

    Interleaving puts both sides under the same machine conditions, so
    their time ratio is the tracing overhead.  Each side has its own
    context (its own warm cache for ``warm-replay``).
    """
    plain, traced = Tally(), Tally()
    plain_ctx, traced_ctx = wl.prepare(), wl.prepare()
    rec = Recorder()
    rec.active = False
    for index in range(jobs):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            if side:
                with Installed(rec):
                    traced.job(wl, traced_ctx, index, rec=rec)
            else:
                plain.job(wl, plain_ctx, index)
    return plain, traced, rec


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _mean(rows, key) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.fmean(values) if values else 0.0


def end_to_end(tally: Tally, segments: list, setup_s: float) -> dict:
    """End-to-end metrics; job times are scaled to the host's nominal speed."""
    samples_ms = [t * 1e3 / s.slowdown for s in segments for t in s.samples]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(samples_ms) / sum(s.busy / s.slowdown for s in segments),
        "job_ms_p50": statistics.median(samples_ms),
        "job_ms_p90": statistics.quantiles(samples_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "t_count_mean": _mean(tally.quality, "t_count"),
        "gate_count_mean": _mean(tally.quality, "gate_count"),
        "two_qubit_count_mean": _mean(tally.quality, "two_qubit_count"),
        "depth_mean": _mean(tally.quality, "depth"),
    }


def per_layer(wl: Workload, rec: Recorder, traced: Tally, plain: Tally) -> dict:
    jobs = traced.attempted
    stats = rec.stats

    def per_job(key, field="n", scale=1.0):
        return stats[key][field] * scale / jobs if key in stats else 0.0

    def per_call(key, field):
        n = stats[key]["n"] if key in stats else 0.0
        return stats[key][field] / n if n else 0.0

    metrics = {
        "frontends.detect.ms": per_job("frontends.detect", "s", 1e3),
        "target.flow.ms": per_job("target.flow", "s", 1e3),
        "compile.self_ms": per_job("compile", "self", 1e3),
    }
    for name in PASSES:
        key = f"pass.{name}"
        metrics[f"{key}.ms"] = per_job(key, "s", 1e3)
        metrics[f"{key}.n"] = per_job(key)
        metrics[f"{key}.gates_out"] = per_call(key, "gates_out")
    metrics["pass.rptm.t_out"] = per_call("pass.rptm", "t_out")
    metrics["pass.tpar.t_out"] = per_call("pass.tpar", "t_out")

    hits, misses = per_job("cache.get", "hits"), per_job("cache.get", "misses")
    metrics.update({
        "cache.key.ms": per_job("cache.key", "s", 1e3),
        "cache.get.ms": per_job("cache.get", "s", 1e3),
        "cache.put.ms": per_job("cache.put", "s", 1e3),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": per_job("cache.put", "evictions"),
    })

    decided = 0.0
    for tier in VERIFY_TIERS:
        metrics[f"verify.{tier}.ms"] = per_job(f"verify.{tier}", "s", 1e3)
        metrics[f"verify.{tier}.n"] = per_job(f"verify.{tier}")
        decided += metrics[f"verify.{tier}.n"]
    metrics["verify.skipped.n"] = per_job("verify.skipped")
    checks = sum(per_job(key) for key in stats if key.startswith("verify."))
    metrics["verified_ratio"] = decided / checks if checks else 0.0

    for fmt in ("qasm2", "qsharp"):
        metrics[f"emit.{fmt}.ms"] = per_job(f"emit.{fmt}", "s", 1e3)
        metrics[f"emit.{fmt}.bytes"] = per_call(f"emit.{fmt}", "bytes")

    for engine in ("density_matrix", "monte_carlo"):
        metrics[f"engine.{engine}.ms"] = per_job(f"engine.{engine}", "s", 1e3)
        metrics[f"engine.{engine}.n"] = per_job(f"engine.{engine}")
    metrics["engine.monte_carlo.shots"] = per_job("engine.monte_carlo", "shots")
    metrics["p_correct_mean"] = _mean(traced.quality, "p_correct")
    for key in ("dm.apply_gate", "dm.apply_channel", "kernels.apply_gate",
                "kernels.apply_matrix", "kernels.apply_pauli"):
        metrics[f"{key}.ms"] = per_job(key, "s", 1e3)
        metrics[f"{key}.n"] = per_job(key)
    metrics["projectq.flush.ms"] = per_job("projectq.flush", "s", 1e3)

    total = sum(rec.layer_self.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = rec.layer_self[layer] / total
    pool = rec.hit_layer_self if wl.predicted_on_hits else rec.layer_self
    pool_total = sum(pool.values())
    metrics["layer.predicted.share"] = (
        sum(pool[layer] for layer in wl.predicted_layers) / pool_total
        if pool_total else 0.0
    )
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy
    return metrics


def missing_calls(wl: Workload, rec: Recorder) -> list:
    return [key for key in wl.expected_calls
            if key not in rec.stats or rec.stats[key]["n"] == 0]


def emit_result(spec_metrics, values: dict, tally_list, correct: bool) -> None:
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    attempted = sum(t.attempted for t in tally_list)
    failed = sum(t.failed for t in tally_list)
    units = {m["name"]: m["unit"] for m in spec_metrics}
    for name in names:
        print(f"{name:<34} {values[name]:>16.6g} {units[name]}")
    print(f"{'failed_ratio':<34} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in names
        },
    }))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    import repro  # noqa: F401  (fail before measuring if src/ is absent)

    spec = load_spec()
    wl = WORKLOADS[workload](seed)
    if not trace:
        warm_up(wl)
        tally, segments, probes = timed_run(wl, seconds)
        slow = statistics.median(s.slowdown for s in segments)
        print(f"{workload} seed={seed}: closed loop, one client; "
              f"{sum(len(s.samples) for s in segments)} timed jobs in "
              f"{len(segments)} segments; the host ran at {1 / slow:.2f}x "
              f"its nominal speed (median), times are scaled to nominal")
        emit_result(spec["end_to_end"],
                    end_to_end(tally, segments, statistics.median(probes)),
                    [tally], True)
        return
    jobs = max(8, round(wl.trace_jobs_per_s * seconds / 2))
    warm_up(wl)
    plain, traced, rec = traced_run(wl, jobs)
    path = os.path.join(HERE, "traces", f"{workload}-seed{seed}.json")
    rec.write_chrome_trace(path)
    missing = missing_calls(wl, rec)
    if missing:
        print(f"entry points with zero calls: {', '.join(missing)}", file=sys.stderr)
    print(f"{workload} seed={seed}: {jobs} jobs, untraced and traced "
          f"interleaved; spans in {os.path.relpath(path, ROOT)}")
    emit_result(spec["per_layer"], per_layer(wl, rec, traced, plain),
                [plain, traced], not missing)


def run_all(seed: int, seconds: float, trace: bool) -> None:
    """Every workload in its own process; one table of all metrics."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=600,
        )
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    first = next(iter(results.values()))["metrics"]
    print(f"{'metric':<30} {'unit':<8}" + "".join(f"{n:>16}" for n in results))
    for metric, entry in first.items():
        unit = entry["unit"]
        row = "".join(
            f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()
        )
        print(f"{metric:<30} {unit:<8}{row}")
    row = "".join(
        f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()
    )
    print(f"{'failed_ratio':<30} {'ratio':<8}{row}")
    print(json.dumps(results))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
