"""Running on the 'IBM Quantum Experience' — the Fig. 6 experiment.

The paper changes two lines of the Fig. 4 program to retarget the IBM
QE chip and runs 3 x 1024 shots, finding the correct shift with
average probability ~0.63.  Here the chip is the calibrated noisy
simulator; this script prints the same histogram (mean +- std per
outcome) as an ASCII rendering of Fig. 6.

Run:  python examples/noisy_chip.py
"""

import numpy as np

from repro.frameworks.projectq import (
    All,
    Compute,
    H,
    IBMBackend,       # <- changed line 1: import the chip backend
    MainEngine,
    Measure,
    PhaseOracle,
    Uncompute,
    X,
)
from repro.engines import QE5_NOISE
from repro.engines.monte_carlo import run_repeated


def f(a, b, c, d):
    return (a and b) ^ (c and d)


def build_circuit():
    eng = MainEngine(backend=IBMBackend(shots=1024, seed=2018))
    # ^ changed line 2: backend=IBMBackend(...) instead of default
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
    return shift, eng.circuit


def main():
    shift, circuit = build_circuit()
    print(f"modal outcome read off the chip: shift = {shift} (paper: 1)")

    # the Fig. 6 protocol: three independent runs of 1024 shots
    mean, std = run_repeated(
        circuit, shots=1024, repetitions=3, noise=QE5_NOISE, seed=2018
    )

    print("\noutcome   probability (3 x 1024 shots)")
    for outcome in range(16):
        bar = "#" * int(round(mean[outcome] * 60))
        marker = " <- correct shift" if outcome == 1 else ""
        print(
            f"  {outcome:04b}   {mean[outcome]:.3f} +- {std[outcome]:.3f} "
            f"{bar}{marker}"
        )
    print(
        f"\ncorrect shift found with average probability "
        f"p = {mean[1]:.2f} (paper: p ~ 0.63)"
    )
    assert int(np.argmax(mean)) == 1


if __name__ == "__main__":
    main()
