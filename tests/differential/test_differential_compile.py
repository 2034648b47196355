"""Property-based differential compilation harness.

The caching/eviction soundness property: for any workload, every
execution path through the facade — plain uncached compilation, a
session sweep over a shared cache, a cold disk-backed cache, a warm
cache after an eviction sweep, and a pure disk replay — must produce
gate-for-gate identical circuits.  Caching and GC are allowed to
change *when* work happens, never *what* comes out.
"""

import shutil
import tempfile

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.compiler import CompilerSession
from repro.pipeline import PassCache


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def permutations(draw):
    n = draw(st.integers(2, 3))
    image = draw(st.permutations(tuple(range(1 << n))))
    return BitPermutation(list(image))


@st.composite
def truth_tables(draw):
    n = draw(st.integers(2, 3))
    bits = draw(st.integers(0, (1 << (1 << n)) - 1))
    return TruthTable(n, bits)


def _gates(result):
    """Canonical gate-for-gate signature of a compilation result."""
    if result.circuit is not None:
        return ("quantum", result.circuit.gates)
    return ("reversible", result.reversible.gates)


def assert_paths_agree(workload, target):
    """Compile one workload through every execution path and compare.

    Paths: (1) uncached — the reference; (2) a session sweep over a
    shared in-memory cache, twice in one sweep so the second point
    replays; (3) cold disk-backed cache; (4) warm cache after a
    gc() sweep evicted most disk entries; (5) pure disk replay in a
    fresh cache instance.
    """
    reference = _gates(repro.compile(workload, target=target, cache=None))

    session = CompilerSession(cache=PassCache())
    first, second = session.sweep(
        {"target": [target, target]}, base=workload
    )
    assert _gates(first.result) == reference
    assert _gates(second.result) == reference

    tmp = tempfile.mkdtemp(prefix="repro-differential-")
    try:
        cold = repro.compile(workload, target=target, cache=tmp)
        assert _gates(cold) == reference

        survivor = PassCache(path=tmp)
        swept = survivor.gc(max_entries=1)
        assert swept["entries"] <= 1
        after_gc = repro.compile(workload, target=target, cache=survivor)
        assert _gates(after_gc) == reference

        replayed = repro.compile(
            workload, target=target, cache=PassCache(path=tmp)
        )
        assert _gates(replayed) == reference
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# the differential properties
# ----------------------------------------------------------------------
@given(permutations())
def test_permutations_to_clifford_t(perm):
    assert_paths_agree(perm, "clifford_t")


@given(permutations())
def test_permutations_to_toffoli(perm):
    assert_paths_agree(perm, "toffoli")


@given(truth_tables())
def test_truth_tables_to_clifford_t(table):
    assert_paths_agree(table, "clifford_t")


@given(
    st.integers(2, 3),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
)
def test_batch_order_is_deterministic(width, seeds):
    """Sweep results follow the grid order."""
    session = CompilerSession(cache=PassCache())  # clifford_t, the default
    swept = session.sweep({"random": [width], "seed": seeds})
    assert [p.params["seed"] for p in swept] == seeds
    sync = [session.compile(point.params) for point in swept]
    assert [_gates(p.result) for p in swept] == [_gates(r) for r in sync]
