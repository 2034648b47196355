"""FIG6 — the IBM Quantum Experience histogram (Sec. VII).

Paper artifact: three runs of 1024 shots of the Fig. 4 circuit on the
IBM QE chip; the correct shift s = 1 is found with average probability
p ~ 0.63, the other 15 outcomes forming a noise floor (Fig. 6 shows
mean and standard deviation per outcome).

Substitution: the chip is replaced by the calibrated noisy simulator
(depolarizing + readout noise at early-2018 IBM QE rates).  The shape
to reproduce: the correct shift is the unambiguous mode with
probability well below 1, and error bars are small relative to the
gap.
"""

import numpy as np
from conftest import report

from repro import engines
from repro.engines import QE5_NOISE, NoiseModel
from repro.engines.monte_carlo import run_repeated
from bench_fig5_simple_hidden_shift import run_program


def build_circuit():
    _shift, circuit = run_program()
    return circuit


def run_chip_experiment(circuit, shots=1024, repetitions=3, seed=2018):
    return run_repeated(
        circuit, shots, repetitions, noise=QE5_NOISE, seed=seed
    )


def test_fig6_histogram(benchmark):
    circuit = build_circuit()
    mean, std = benchmark.pedantic(
        run_chip_experiment, args=(circuit,), rounds=1, iterations=1
    )
    mode = int(np.argmax(mean))
    rows = [
        ("paper: 3 runs x 1024 shots on IBM QE", ""),
        ("paper: correct shift", "s = 1 (histogram mode)"),
        ("paper: p(correct) ~", 0.63),
        ("measured: mode", mode),
        ("measured: p(correct)", f"{mean[1]:.3f} +- {std[1]:.3f}"),
        ("measured: runner-up p", f"{sorted(mean)[-2]:.3f}"),
    ]
    rows.append(("outcome histogram (mean +- std)", ""))
    for outcome in range(16):
        bar = "#" * int(round(mean[outcome] * 50))
        rows.append(
            (
                format(outcome, "04b"),
                f"{mean[outcome]:.3f} +- {std[outcome]:.3f} {bar}",
            )
        )
    report("FIG6: hidden shift on the noisy chip model", rows)

    assert mode == 1, "correct shift must be the histogram mode"
    assert 0.35 < mean[1] < 0.95, "success prob must be noisy but dominant"
    assert mean[1] > 2 * sorted(mean)[-2], "clear gap to runner-up"


def test_fig6_noise_sensitivity(benchmark):
    def _run():
        """Sweep the noise scale: success degrades monotonically-ish from
        ~1 (noiseless) toward uniform as gate errors grow."""
        circuit = build_circuit()
        rows = []
        previous = 1.1
        for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
            model = NoiseModel(
                p1=0.0015 * scale,
                p2=0.035 * scale,
                p_meas=0.04 * scale,
                p_multi=0.06 * scale,
            )
            result = engines.run(
                "monte_carlo", circuit, shots=1024, noise=model, seed=7
            )
            p = result.probability(1)
            rows.append((f"noise x{scale}", f"p(correct) = {p:.3f}"))
            previous = p
        report("FIG6 extension: success vs noise scale", rows)
        noiseless = engines.run(
            "monte_carlo", circuit, shots=256, seed=7
        )
        assert noiseless.probability(1) == 1.0
    benchmark.pedantic(_run, rounds=1, iterations=1)
