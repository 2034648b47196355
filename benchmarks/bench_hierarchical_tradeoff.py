"""CLAIM-HIER — hierarchical synthesis trades qubits for gates (Sec. V).

Paper claim: hierarchical reversible synthesis maps network nodes onto
ancillae ("if the network has many internal nodes, many ancillae are
required, however, pebbling strategies may be employed to trade off
the number of qubits for quantum operations"), and "k is a result of
the synthesis algorithm" — the open challenge of Sec. IX.

Reproduced series:
  1. BDD- and LUT-based synthesis ancilla counts (k determined by the
     algorithm, growing with function complexity);
  2. bennett vs eager LHRS strategies (fewer ancillae, same or more
     gates);
  3. the pebble-game trade-off curve (pebbles down, moves up).
"""

from conftest import report

from repro.boolean.truth_table import TruthTable
from repro.synthesis.bdd_based import bdd_synthesis
from repro.synthesis.embedding import verify_bennett_circuit
from repro.synthesis.lut_based import lut_synthesis
from repro.synthesis.pebbling import pebble_tradeoff_curve


def workloads():
    return [
        ("IP bent n=4", TruthTable.inner_product(2)),
        ("IP bent n=6", TruthTable.inner_product(3)),
        (
            "majority-5",
            TruthTable.from_function(
                5, lambda a, b, c, d, e: (a + b + c + d + e) >= 3
            ),
        ),
        (
            "adder-bit",
            TruthTable.from_function(
                6,
                lambda a, b, c, d, e, f: (
                    ((a + c + e) + 2 * (b + d + f)) >> 2
                ) & 1,
            ),
        ),
    ]


def test_hierarchical_ancilla_counts(benchmark):
    table = TruthTable.inner_product(3)
    benchmark(lut_synthesis, table, 3, "bennett")

    rows = [("paper: k (ancillae) is decided by the algorithm", "")]
    for name, table in workloads():
        bdd_result = bdd_synthesis(table)
        assert verify_bennett_circuit(bdd_result.circuit, table)
        bennett = lut_synthesis(table, k=3, strategy="bennett")
        eager = lut_synthesis(table, k=3, strategy="eager")
        assert verify_bennett_circuit(bennett.circuit, table)
        assert verify_bennett_circuit(eager.circuit, table)
        rows.append(
            (
                name,
                f"BDD anc = {bdd_result.num_ancillae:2d}  "
                f"LHRS(bennett) anc/gates = {bennett.num_ancillae:2d}/"
                f"{len(bennett.circuit):3d}  "
                f"LHRS(eager) anc/gates = {eager.num_ancillae:2d}/"
                f"{len(eager.circuit):3d}",
            )
        )
        assert eager.num_ancillae <= bennett.num_ancillae
    report("CLAIM-HIER: ancilla demand of hierarchical synthesis", rows)


def test_lut_size_tradeoff(benchmark):
    def _run():
        """Larger LUTs -> fewer ancillae but bigger single-target gates."""
        table = TruthTable.inner_product(3)
        rows = []
        previous_anc = None
        for k in (2, 3, 4, 5, 6):
            result = lut_synthesis(table, k=k, strategy="bennett")
            assert verify_bennett_circuit(result.circuit, table)
            rows.append(
                (
                    f"k = {k}",
                    f"ancillae = {result.num_ancillae:2d}  "
                    f"gates = {len(result.circuit):3d}",
                )
            )
            if previous_anc is not None:
                assert result.num_ancillae <= previous_anc
            previous_anc = result.num_ancillae
        report("CLAIM-HIER: LUT size k vs ancillae", rows)


    benchmark.pedantic(_run, rounds=1, iterations=1)
def test_pebbling_tradeoff_curve(benchmark):
    def _run():
        """The [66]-style qubits-for-gates curve on a 24-step chain."""
        num_steps = 24
        points = pebble_tradeoff_curve(num_steps, list(range(3, 25)))
        rows = [("paper: fewer pebbles -> more moves (recomputation)", "")]
        for pebbles, moves in sorted(set(points)):
            bar = "#" * (moves // 8)
            rows.append((f"pebbles = {pebbles:2d}", f"moves = {moves:4d} {bar}"))
        report("CLAIM-HIER: reversible pebble-game trade-off", rows)
        points = sorted(set(points))
        assert points[0][1] >= points[-1][1]  # fewest pebbles costs most moves
        assert points[-1][1] == 2 * num_steps - 1  # full budget = Bennett
    benchmark.pedantic(_run, rounds=1, iterations=1)
