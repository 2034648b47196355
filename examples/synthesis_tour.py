"""A tour of the reversible-synthesis portfolio (Sec. V).

Synthesizes the same specification with every algorithm in the
library, showing the trade-offs the paper surveys:

  * reversible input (a permutation): tbs, bidirectional tbs, dbs,
    exact search;
  * irreversible input (a Boolean function): ESOP-based (ancilla-free
    Bennett oracle), BDD-based and LUT-based hierarchical synthesis
    (ancillae = network nodes), with the eager pebbling variant;
  * embedding an irreversible function explicitly (Eq. (2) vs Eq. (3)).

Every result is verified by simulation and finally mapped to
Clifford+T with and without relative-phase Toffolis.  The closing
sections run the same portfolio through the ``qsharp`` target
(``repro.compile``) with fail-fast verification on, printing the
per-pass statistics report.

Run:  python examples/synthesis_tour.py
"""

from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.mapping.barenco import map_to_clifford_t
from repro.synthesis.bdd_based import bdd_synthesis
from repro.synthesis.decomposition import decomposition_based_synthesis
from repro.synthesis.embedding import (
    bennett_embedding,
    explicit_embedding,
    minimum_garbage_bits,
    verify_bennett_circuit,
)
from repro.synthesis.esop_based import esop_synthesis
from repro.synthesis.exact import exact_synthesis
from repro.synthesis.lut_based import lut_synthesis
from repro.synthesis.transformation import (
    bidirectional_synthesis,
    transformation_based_synthesis,
)


def reversible_portfolio():
    print("== reversible specification: pi = [0,2,3,5,7,1,4,6] ==")
    perm = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])
    for name, algo in (
        ("transformation-based (tbs)", transformation_based_synthesis),
        ("bidirectional tbs", bidirectional_synthesis),
        ("decomposition-based (dbs)", decomposition_based_synthesis),
        ("exact (BFS optimum)", exact_synthesis),
    ):
        circuit = algo(perm)
        ok = circuit.permutation() == perm
        print(
            f"  {name:<28} {len(circuit):2d} MCT gates, "
            f"quantum cost {circuit.quantum_cost():3d}, correct={ok}"
        )
        assert ok


def irreversible_portfolio():
    print("\n== irreversible specification: majority-of-5 ==")
    table = TruthTable.from_function(
        5, lambda a, b, c, d, e: (a + b + c + d + e) >= 3
    )

    esop = esop_synthesis(table)
    assert verify_bennett_circuit(esop, table)
    print(
        f"  ESOP-based (ancilla-free)   lines={esop.num_lines} "
        f"gates={len(esop)}"
    )

    bdd = bdd_synthesis(table)
    assert verify_bennett_circuit(bdd.circuit, table)
    print(
        f"  BDD-based hierarchical      lines={bdd.total_lines} "
        f"gates={len(bdd.circuit)} (ancillae={bdd.num_ancillae})"
    )

    for strategy in ("bennett", "eager"):
        lut = lut_synthesis(table, k=3, strategy=strategy)
        assert verify_bennett_circuit(lut.circuit, table)
        print(
            f"  LUT-based ({strategy:<7})       lines={lut.total_lines} "
            f"gates={len(lut.circuit)} (ancillae={lut.num_ancillae})"
        )


def embedding_demo():
    print("\n== embedding an irreversible function (2-bit AND) ==")
    table = TruthTable.from_function(2, lambda a, b: a and b)
    bennett = bennett_embedding(table)
    explicit, r = explicit_embedding(table)
    print(f"  Bennett embedding  (Eq. 3): {bennett.num_bits} lines")
    print(
        f"  explicit embedding (Eq. 2): {r} lines "
        f"(minimum garbage = {minimum_garbage_bits(table)})"
    )


def mapping_demo():
    print("\n== Clifford+T mapping of the synthesized oracle ==")
    table = TruthTable.from_function(
        5, lambda a, b, c, d, e: (a + b + c + d + e) >= 3
    )
    reversible = esop_synthesis(table)
    for relative_phase in (False, True):
        mapped = map_to_clifford_t(reversible, relative_phase=relative_phase)
        label = "relative-phase" if relative_phase else "naive 7-T"
        print(
            f"  {label:<15} qubits={mapped.num_qubits} "
            f"gates={len(mapped)} T={mapped.t_count()}"
        )


def pipeline_demo():
    print("\n== the same flow through a target (repro.compile) ==")
    import repro
    from repro.compiler import targets

    perm = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])
    print("  target 'qsharp' on pi, verify=True (per-pass report):")
    result = repro.compile(perm, target="qsharp", verify=True, cache=None)
    for line in result.report().splitlines():
        print("    " + line)

    print("  synthesis back-ends and mappings through the same target:")
    methods = ("tbs", "tbs-bidir", "dbs", "exact")
    variants = [{"synthesis": method} for method in methods]
    variants.append({"synthesis": "tbs", "relative_phase": False})
    for changes in variants:
        target = targets.QSHARP.with_(**changes)
        res = repro.compile(perm, target=target, cache=None)
        label = ",".join(f"{k}={v}" for k, v in changes.items())
        print(
            f"    {label:<36} MCT={len(res.reversible):2d}  "
            f"gates={len(res.circuit):3d}  T={res.circuit.t_count():2d}  "
            f"({res.total_seconds * 1e3:.2f}ms)"
        )


def facade_demo():
    print("\n== one front door: repro.compile() + a synthesis sweep ==")
    import repro
    from repro.pipeline import PassCache

    perm = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])
    result = repro.compile(perm, target="qsharp", cache=None)
    print(f"  repro.compile(pi, target='qsharp'): {result.summary()}")

    session = repro.CompilerSession(cache=PassCache())
    sweep = session.sweep(
        {"synthesis": ["tbs", "tbs-bidir", "dbs"],
         "optimization_level": [1, 2]},
        base=perm,
    )
    for line in sweep.table("t_count").splitlines():
        print("    " + line)
    best = sweep.best("t_count")
    print(
        f"  best T-count: {best.params} "
        f"(cache hits across the sweep: {sweep.cache_hits})"
    )


if __name__ == "__main__":
    reversible_portfolio()
    irreversible_portfolio()
    embedding_demo()
    mapping_demo()
    pipeline_demo()
    facade_demo()
