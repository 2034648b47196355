"""A fixed reference load that measures how fast the host runs right now.

The host these numbers come from (2 vCPUs, shared with other tenants)
runs everything at anything from full speed down to about half of it,
for stretches of tens of seconds, and the slowdown shows in CPU time as
much as in wall time.  So the benchmark runs this load between segments
of jobs and scales each segment's job times by how slow the load ran
next to it: the reported times are the times at the host's full speed.

The load is the benchmark's own code and never changes with the
program under test.  It mixes the kinds of work the jobs do: object
churn and ``copy.deepcopy`` of small nested records (compile passes and
cache copies), string building (emission) and small NumPy sweeps
(simulation and dense verification).
"""

from __future__ import annotations

import copy
import statistics
import time

import numpy as np

#: CPU seconds of one :func:`reference_load` at the reference host's full
#: speed (a shared 2-vCPU x86-64 VM, Python 3.11, NumPy on one thread):
#: the median of many calls there while the host ran at full speed.
NOMINAL_SECONDS = 0.0024
#: timed calls per measurement, after one untimed call that brings the
#: load back into the CPU's caches; the median is taken.
REPEATS = 5

#: the process's CPU clock, which the jobs are timed on too.
clock = time.process_time


def reference_load() -> int:
    """One fixed piece of work; returns a checksum so nothing is skipped."""
    records = [
        {"name": "cx", "qubits": (i % 7, (i + 3) % 7), "params": [0.25 * i],
         "tag": ("gate", i)}
        for i in range(300)
    ]
    clone = copy.deepcopy(records)
    table = {}
    for record in clone:
        key = (record["name"], record["qubits"])
        table[key] = table.get(key, 0) + len(record["params"])
    text = "".join(
        f"{r['name']} q[{r['qubits'][0]}],q[{r['qubits'][1]}];\n" for r in clone
    )
    state = np.zeros(1 << 8, dtype=complex)
    state[0] = 1.0
    tensor = state.reshape((2,) * 8)
    for q in range(8):
        lo = tensor.take(0, axis=q)
        hi = tensor.take(1, axis=q)
        tensor = np.stack(((lo + hi) * 0.5 ** 0.5, (lo - hi) * 0.5 ** 0.5), axis=q)
    return len(table) + len(text) + int(abs(tensor).sum() > 0)


def slowdown() -> float:
    """How many times slower than nominal the host runs the load now."""
    reference_load()
    times = []
    for _ in range(REPEATS):
        started = clock()
        reference_load()
        times.append(clock() - started)
    return statistics.median(times) / NOMINAL_SECONDS
