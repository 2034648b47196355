"""EXT-ARITH — Toffoli-count scaling of Shor-style arithmetic.

Sec. III motivates the flow with the combinational workloads of real
algorithms: "factoring needs constant modular arithmetic [1]"; the
authors' reference [3] (Häner, Roetteler, Svore) builds factoring from
Toffoli-based modular arithmetic and reports linear-ish Toffoli growth
per adder bit.

Reproduced series: gate and T-count scaling of the Cuccaro adder
(2n Toffolis — linear), the constant adder (O(n^2) MCTs in the simple
variant), and the modular constant adder, plus end-to-end Clifford+T
mapping through the rptm pass.
"""

from conftest import report

from repro.arith import constant_adder, cuccaro_adder, modular_constant_adder
from repro.core.statistics import circuit_statistics
from repro.mapping.barenco import map_to_clifford_t
from repro.optimization.simplify import cancel_adjacent_gates
from repro.optimization.tpar import tpar_optimize


def test_adder_scaling(benchmark):
    benchmark(cuccaro_adder, 8)

    rows = [("block", "MCT gates | Toffolis | T after mapping+tpar")]
    previous_toffoli = 0
    for n in (2, 4, 6, 8):
        circuit = cuccaro_adder(n)
        toffolis = sum(1 for g in circuit if g.num_controls == 2)
        mapped = cancel_adjacent_gates(
            tpar_optimize(
                cancel_adjacent_gates(map_to_clifford_t(circuit))
            )
        )
        rows.append(
            (
                f"cuccaro n={n}",
                f"{len(circuit):4d}      | {toffolis:4d}     | "
                f"{mapped.t_count():4d}",
            )
        )
        # the paper-[3] shape: Toffoli count linear in n (2n here)
        assert toffolis == 2 * n
        assert toffolis > previous_toffoli
        previous_toffoli = toffolis
    report("EXT-ARITH: ripple-carry adder scaling (linear Toffolis)", rows)


def test_constant_and_modular_adders(benchmark):
    def _run():
        rows = [("block", "MCT gates | quantum cost")]
        for n in (3, 4, 5, 6):
            circuit = constant_adder(n, (1 << n) - 3)
            rows.append(
                (
                    f"add-const n={n}",
                    f"{len(circuit):4d}      | {circuit.quantum_cost():5d}",
                )
            )
        for n, modulus in ((3, 5), (4, 11), (5, 23)):
            circuit = modular_constant_adder(n, 3, modulus)
            stats = circuit_statistics(map_to_clifford_t(circuit))
            rows.append(
                (
                    f"add-mod n={n} N={modulus}",
                    f"{len(circuit):4d}      | T={stats.t_count}",
                )
            )
        report("EXT-ARITH: constant / modular adder costs", rows)

        # correctness spot-check at the largest size
        perm = modular_constant_adder(5, 3, 23).permutation()
        assert all(
            perm(x) & 31 == (x + 3) % 23 for x in range(23)
        )
    benchmark.pedantic(_run, rounds=1, iterations=1)
