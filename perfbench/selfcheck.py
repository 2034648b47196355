"""Determinism and smoke test of the benchmark itself.

Run from the repository root with::

    python3 -m pytest perfbench/selfcheck.py -q

Every workload runs with a tiny job count, untraced and traced, twice
on one seed.  The test asserts that every printed metric name matches
``BENCHMARK.json``, that no job failed, and that every count metric —
the output-quality counts, ``cache.hit_ratio``, ``pass.*.gates_out``,
``verify.*.n`` and the rest — repeats exactly across the two runs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: short enough that every run stops at its minimum job count.
TINY_SECONDS = "0.2"
#: per-layer metrics that are measured ratios of time, not counts.
_TIMED_RATIOS = ("layer.", "trace.")


def _run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", TINY_SECONDS, "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _is_count(entry):
    if entry["unit"] in ("ms", "s", "1/s", "MB"):
        return False
    return not entry["name"].startswith(_TIMED_RATIOS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_is_correct_and_repeatable(workload, trace):
    listed = SPEC["per_layer" if trace else "end_to_end"]
    first, second = _run(workload, trace), _run(workload, trace)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for entry in listed:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    counts = [entry["name"] for entry in listed if _is_count(entry)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        cls.why for cls in WORKLOADS.values()
    ]
