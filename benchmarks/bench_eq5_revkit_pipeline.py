"""EQ5 — the RevKit command pipeline (Sec. VI, Eq. (5)).

Paper artifact: the command script

    revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c

which generates the hidden-weighted-bit function on 4 inputs,
synthesizes it with transformation-based synthesis, simplifies the
cascade, maps to Clifford+T with relative-phase Toffolis, optimizes
the T-count with T-par, and prints statistics.

Reproduced rows: the per-stage gate statistics.  The paper prints no
absolute numbers for this pipeline, so the shape obligations are:
every stage preserves the function, revsimp never grows the cascade,
rptm emits pure Clifford+T, and tpar strictly reduces T-count.

The script executes through the pass manager: the timed kernel
compiles ``{"hwb": 4}`` for the ``clifford_t`` target (with caching
disabled so the measurement is real compute), and the shell path is
asserted to produce the identical circuit gate-for-gate.
"""

from conftest import report

import repro
from repro.boolean.permutation import BitPermutation
from repro.core.statistics import circuit_statistics
from repro.pipeline import Pipeline
from repro.revkit import RevKitShell


def run_pipeline():
    return repro.compile({"hwb": 4}, target="clifford_t", cache=None)


def test_eq5_pipeline(benchmark):
    result = benchmark(run_pipeline)

    records = {record.name: record for record in result.records}
    tbs_gates = records["tbs"].after["mct_gates"]
    simp_gates = records["revsimp"].after["mct_gates"]
    assert result.reversible.permutation() == BitPermutation.hidden_weighted_bit(4)
    mapped_record = records["rptm"]
    t_before = mapped_record.after["t_count"]
    t_after = records["tpar"].after["t_count"]
    stats = result.state.artifacts["statistics"]

    # the RevKit shell dispatches the same passes: identical circuit
    shell = RevKitShell(pipeline=Pipeline(cache=None))
    shell.run("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")
    assert shell.quantum.gates == result.circuit.gates
    assert circuit_statistics(shell.quantum).as_dict() == stats.as_dict()

    report(
        "EQ5: revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c",
        [
            ("tbs: MCT gates", tbs_gates),
            ("revsimp: MCT gates", simp_gates),
            ("revsimp preserves hwb4", True),
            ("final Clifford+T?", result.circuit.is_clifford_t()),
            ("rptm: qubits", mapped_record.after["qubits"]),
            ("rptm: T-count", t_before),
            ("tpar: T-count", t_after),
            ("final gates", stats.num_gates),
            ("final depth", stats.depth),
            ("final T-depth", stats.t_depth),
            ("final 2q gates", stats.two_qubit_count),
            ("pipeline wall-clock", f"{result.total_seconds * 1e3:.2f}ms"),
        ],
    )
    assert simp_gates <= tbs_gates
    assert t_after < t_before
    assert result.circuit.is_clifford_t()


def test_eq5_pipeline_other_generators(benchmark):
    def _run():
        """Same target over the other revgen functions: the invariants
        hold for every benchmark function, not just hwb4."""
        rows = []
        for label, options in (
            ("--hwb 5", {"hwb": 5}),
            ("--adder 4 --const 3", {"adder": 4, "const": 3}),
            ("--rotate 4", {"rotate": 4}),
            ("--gray 4", {"gray": 4}),
            ("--random 4 --seed 11", {"random": 4, "seed": 11}),
        ):
            result = repro.compile(
                options, target="clifford_t", verify=True, cache=None
            )
            assert result.reversible.permutation() == result.state.function
            before = result.record("rptm").after["t_count"]
            after = result.record("tpar").after["t_count"]
            rows.append(
                (f"revgen {label}", f"MCT={len(result.reversible)} "
                 f"T: {before} -> {after}")
            )
            assert after <= before
        report("EQ5 extension: pipeline across generators", rows)
    benchmark.pedantic(_run, rounds=1, iterations=1)


def test_eq5_cache_replays(benchmark):
    def _run():
        """A second identical flow run must replay every pass from the
        content-keyed cache without recomputing."""
        from repro.pipeline import PassCache

        cache = PassCache()
        cold = repro.compile({"hwb": 4}, target="clifford_t", cache=cache)
        warm = repro.compile({"hwb": 4}, target="clifford_t", cache=cache)
        assert [record.cache_hit for record in cold.records] == [False] * 6
        assert [record.cache_hit for record in warm.records] == [True] * 6
        assert warm.circuit.gates == cold.circuit.gates
        report(
            "EQ5 extension: pass-result cache",
            [
                ("cold run wall-clock", f"{cold.total_seconds * 1e3:.2f}ms"),
                ("warm run wall-clock", f"{warm.total_seconds * 1e3:.2f}ms"),
                ("cache", cache.stats()),
            ],
        )
    benchmark.pedantic(_run, rounds=1, iterations=1)
