"""Targeting a constrained device with the full compiler chain.

Combines everything the Fig. 2 flow needs to put a program on a real
chip: the hidden-shift program is written once against the eDSL, and
the CompilerBackend lowers it (cancellation -> Clifford+T -> T-par ->
SWAP routing) for three different device topologies, printing the
compiled-cost comparison and an ASCII rendering of the small circuit.

Run:  python examples/device_targeting.py
"""

from repro.core.drawing import draw_circuit
from repro.frameworks.projectq import (
    All,
    CompilerBackend,
    Compute,
    H,
    MainEngine,
    Measure,
    PhaseOracle,
    Uncompute,
    X,
)
from repro.mapping.routing import CouplingMap


def f(a, b, c, d):
    return (a and b) ^ (c and d)


def run_on(backend):
    eng = MainEngine(backend=backend)
    x1, x2, x3, x4 = qubits = eng.allocate_qureg(4)
    with Compute(eng):
        All(H) | qubits
        X | x1
    PhaseOracle(f) | qubits
    Uncompute(eng)
    PhaseOracle(f) | qubits
    All(H) | qubits
    Measure | qubits
    eng.flush()
    shift = 8 * int(x4) + 4 * int(x3) + 2 * int(x2) + int(x1)
    return shift, eng


def main():
    print("device   | shift | gates | 2q | T | swaps")
    print("---------+-------+-------+----+---+------")
    for name, coupling in (
        ("ideal", None),
        ("ibmqx2", CouplingMap.ibm_qx2()),
        ("ibmqx4", CouplingMap.ibm_qx4()),
        ("line-5", CouplingMap.line(5)),
    ):
        backend = CompilerBackend(coupling=coupling)
        shift, _eng = run_on(backend)
        stats = backend.report.compiled_stats
        print(
            f"{name:<8} |   {shift}   |  {stats.num_gates:3d}  | "
            f"{stats.two_qubit_count:2d} | {stats.t_count} | "
            f"{backend.report.swap_count}"
        )
        assert shift == 1

    print("\ncompiled circuit for ibmqx2 (ASCII rendering):")
    backend = CompilerBackend(coupling=CouplingMap.ibm_qx2())
    run_on(backend)
    print(draw_circuit(backend.compiled_circuit))

    # the backend dispatches through repro.compile(); the same chain
    # is available directly from the front door, QASM included
    import repro

    result = repro.compile(backend.compiled_circuit, target="ibm_qe5")
    print("\nrepro.compile(circuit, target='ibm_qe5'):")
    print("  " + result.summary())
    print("  first QASM lines: "
          + " / ".join(result.to_qasm().splitlines()[:4]))

    # the same compiled circuit renders in every format
    # (see examples/emitter_tour.py for the full tour)
    print("  emitters: " + ", ".join(repro.emit.formats()))
    reimported = repro.emit.parse(result.emit("qasm2"))
    print("  qasm2 re-import is gate-for-gate equal: "
          f"{reimported.gates == result.circuit.gates}")


if __name__ == "__main__":
    main()
