"""The four paper-flow workloads: seeded job streams, jobs and output checks.

Every workload is a closed loop with one client: one job at a time, each
waiting for the one before it, in one thread of one process.  A job runs
one of the paper's flows from its input to the final artifact (emitted
text or counts).  Inputs come only from ``(workload, seed)``: the stream
is cut into rounds, each round drawn from ``random.Random`` seeded with
the workload name, the seed and the round number.  Rounds are
stratified — every round holds the same mix of job classes, and fixed
pools are dealt out in seeded cycles — so the latency percentiles sit
inside one class instead of on a class boundary whose position would
move with the seed.

The program only ever sees the generated inputs.  The output checks use
references that do not come from the compiler under test: the generator's
permutation, the first cold compile of a replayed point, the planted
hidden shift, the paper's permutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: the paper's Fig. 10 permutation.
PAPER_PI = (0, 2, 3, 5, 7, 1, 4, 6)

#: targets a spec of ``n`` variables may go to: the 5-qubit chip only
#: takes 4-variable specs (one ancilla is added by the mapping).
WIDE_TARGETS = ("clifford_t", "qsharp")
NARROW_TARGETS = ("clifford_t", "qsharp", "ibm_qe5")

#: Monte-Carlo shots per fig6 job.
SHOTS = 1024


@dataclass
class Job:
    """One unit of work: a kind label plus the generated input."""

    index: int
    kind: str
    spec: Any
    target: str
    fmt: Optional[str] = None
    seed: int = 0


@dataclass
class Outcome:
    """What a job produced, kept for the untimed check."""

    circuit: Any
    text: Optional[str] = None
    result: Any = None
    hit: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)


def targets_for(num_vars: int) -> Tuple[str, ...]:
    return NARROW_TARGETS if num_vars <= 4 else WIDE_TARGETS


def emitter_for(target: str) -> str:
    return "qsharp" if target == "qsharp" else "qasm2"


def spec_width(spec: Dict[str, int]) -> int:
    from repro.pipeline.passes import GENERATOR_KINDS

    return next(value for key, value in spec.items() if key in GENERATOR_KINDS)


def reference_permutation(spec: Dict[str, int]) -> Tuple[int, ...]:
    """The permutation a revgen spec denotes, straight from the generators."""
    from repro.revkit import generators

    if "hwb" in spec:
        perm = generators.hwb(spec["hwb"])
    elif "adder" in spec:
        perm = generators.modular_adder(spec["adder"], spec["const"])
    elif "gray" in spec:
        perm = generators.gray_code(spec["gray"])
    elif "rotate" in spec:
        perm = generators.bit_rotation(spec["rotate"], spec["amount"])
    else:
        perm = generators.random_permutation(spec["random"], seed=spec["seed"])
    return tuple(perm.image)


def realizes(circuit, perm, layout=None, final_layout=None) -> bool:
    """Simulate every basis input of ``circuit`` and compare with ``perm``.

    Each input must reach its image with probability 1 (a phase per
    input is allowed: this checks the classical action).  Data bit ``i``
    starts on wire ``layout[i]`` and is read from
    ``final_layout[i]``; every other wire starts in |0>.  The inputs are
    evolved together as columns of one block through
    ``repro.core.unitary``, so the check needs no full ``4^n`` unitary.
    """
    from repro.core.unitary import apply_gate_to_unitary

    width = (len(perm) - 1).bit_length()
    n = circuit.num_qubits
    layout = list(layout) if layout is not None else list(range(width))
    final_layout = list(final_layout) if final_layout is not None else layout

    def place(value, wires):
        return sum(((value >> i) & 1) << wires[i] for i in range(width))

    block = np.zeros((1 << n, len(perm)), dtype=complex)
    for x in range(len(perm)):
        block[place(x, layout), x] = 1.0
    for gate in circuit.gates:
        if gate.name == "barrier" or gate.is_measurement:
            continue
        block = apply_gate_to_unitary(block, gate, n)
    rows = [place(perm[x], final_layout) for x in range(len(perm))]
    amplitudes = block[rows, np.arange(len(perm))]
    return bool(np.all(np.abs(np.abs(amplitudes) - 1.0) < 1e-6))


def circuit_quality(circuit) -> Dict[str, float]:
    return {
        "t_count": float(circuit.t_count()),
        "gate_count": float(len(circuit)),
        "two_qubit_count": float(circuit.two_qubit_count()),
        "depth": float(circuit.depth()),
    }


class _Cycle:
    """Seeded shuffles of ``items``, back to back.

    Every item recurs at the same rate whatever the seed, so a run's mix
    of job classes does not drift with it.
    """

    def __init__(self, items) -> None:
        self.items = tuple(items)
        self._order: List[Any] = []

    def draw(self, rng: random.Random) -> Any:
        if not self._order:
            self._order = list(self.items)
            rng.shuffle(self._order)
        return self._order.pop()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: a seeded stream of rounds, plus job/check hooks."""

    name = ""
    why = ""
    #: leading rounds the output-quality counts are averaged over.  They
    #: cover whole cycles of the workload's fixed pools, and only pool
    #: jobs count (``fresh`` jobs are seed-dependent), so the counts
    #: repeat exactly for every seed.
    quality_rounds = 1
    #: jobs per second of run time to size the traced run; the traced
    #: run's job count is fixed by (workload, seconds) so that its
    #: counts repeat exactly for one seed.
    trace_jobs_per_s = 1.0
    #: the layers predicted to dominate the workload's traced self time.
    predicted_layers: Tuple[str, ...] = ()
    #: whether the prediction is about cache-hit jobs only.
    predicted_on_hits = False
    #: trace keys that must record at least one call.
    expected_calls: Tuple[str, ...] = ()
    targets: Tuple[str, ...] = ()
    engines: Tuple[str, ...] = ()
    emitters: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._jobs: List[Job] = []
        self._starts: List[int] = []

    def _grow(self) -> None:
        number = len(self._starts)
        rng = random.Random(f"{self.name}:{self.seed}:{number}")
        self._starts.append(len(self._jobs))
        for kind, spec, target, fmt, seed in self.round(rng, number):
            self._jobs.append(Job(len(self._jobs), kind, spec, target, fmt, seed))

    def job(self, index: int) -> Job:
        while len(self._jobs) <= index:
            self._grow()
        return self._jobs[index]

    def round_range(self, number: int) -> range:
        """Indices of the jobs in round ``number``."""
        while len(self._starts) <= number + 1:
            self._grow()
        return range(self._starts[number], self._starts[number + 1])

    def counts_quality(self, job: Job) -> bool:
        return job.index < self.round_range(self.quality_rounds - 1).stop and (
            job.kind != "fresh"
        )

    def round(self, rng: random.Random, number: int) -> List[tuple]:
        raise NotImplementedError

    def prepare(self) -> Any:
        """Build per-pass state before the first job (part of set-up)."""
        return None

    def run(self, ctx: Any, job: Job) -> Outcome:
        raise NotImplementedError

    def check(self, ctx: Any, job: Job, out: Outcome) -> bool:
        raise NotImplementedError

    def quality(self, job: Job, out: Outcome) -> Dict[str, float]:
        return circuit_quality(out.circuit)

    def resolve_registries(self) -> None:
        """Resolve every target, engine and emitter the workload uses."""
        from repro import emit, engines
        from repro.compiler import get_target

        for name in self.targets:
            get_target(name)
        for name in self.engines:
            engines.get(name)
        for name in self.emitters:
            emit.get(name)


class _PermutationChecks:
    """Memoized ``realizes`` checks keyed on the emitted artifact.

    Identical text from identical input denotes the identical circuit,
    so a repeat of a checked artifact is settled by that earlier check.
    """

    def __init__(self) -> None:
        self._memo: Dict[tuple, bool] = {}

    def check_qasm(self, job: Job, out: Outcome) -> bool:
        from repro.emit import parse

        key = (tuple(sorted(job.spec.items())), out.text)
        if key not in self._memo:
            circuit = parse(out.text, "qasm2")
            routing = out.result.routing
            layouts = (
                (routing.initial_layout, routing.final_layout)
                if routing is not None else (None, None)
            )
            self._memo[key] = realizes(
                circuit, reference_permutation(job.spec), *layouts
            )
        return self._memo[key]


class Eq5Cold(Workload):
    name = "eq5-cold"
    why = (
        "the Eq. (5) revgen; tbs; revsimp; rptm; tpar; ps chain, cold "
        "(no cache, no verify): pipeline.passes does the work, cache and "
        "verify are bypassed"
    )
    quality_rounds = 2  # both hwb6 targets
    trace_jobs_per_s = 7.0
    predicted_layers = ("passes",)
    expected_calls = (
        "compile", "frontends.detect", "target.flow", "pass.revgen",
        "pass.tbs", "pass.revsimp", "pass.rptm", "pass.tpar", "pass.cancel",
        "pass.route", "pass.ps", "emit.qasm2",
    )
    targets = NARROW_TARGETS
    emitters = ("qasm2",)

    #: the fixed spec pool; each round compiles it for every target the
    #: spec fits, plus FRESH random permutations drawn from the seed.
    CORE = (
        {"hwb": 4}, {"hwb": 5}, {"adder": 5, "const": 11}, {"gray": 5},
        {"rotate": 5, "amount": 2}, {"random": 4, "seed": 2018},
        {"random": 5, "seed": 2018},
    )
    #: 2-4x slower than any other spec, so it goes to one target a round
    #: (in turn): at 1 job in 21 it stays clear of the p90.
    HEAVY = {"hwb": 6}
    FRESH = (4, 4, 5, 5)

    def __init__(self, seed):
        super().__init__(seed)
        self._heavy_targets = _Cycle(WIDE_TARGETS)
        self._fresh_targets = {w: _Cycle(targets_for(w)) for w in set(self.FRESH)}

    def round(self, rng, number):
        jobs = [
            ("core", spec, target, "qasm2", 0)
            for spec in self.CORE
            for target in targets_for(spec_width(spec))
        ]
        jobs.append(
            ("core", self.HEAVY, self._heavy_targets.draw(rng), "qasm2", 0)
        )
        for width in self.FRESH:
            spec = {"random": width, "seed": rng.randrange(1 << 30)}
            target = self._fresh_targets[width].draw(rng)
            jobs.append(("fresh", spec, target, "qasm2", 0))
        rng.shuffle(jobs)
        return jobs

    def prepare(self):
        return _PermutationChecks()

    def run(self, ctx, job):
        import repro

        result = repro.compile(job.spec, target=job.target, cache=None, verify="off")
        return Outcome(result.circuit, result.emit(job.fmt), result)

    def check(self, ctx, job, out):
        return ctx.check_qasm(job, out)


@dataclass
class _Warm:
    cache: Any
    references: Dict[tuple, tuple]
    checks: _PermutationChecks


class WarmReplay(Workload):
    name = "warm-replay"
    why = (
        "repro.compile + emit over one warm in-memory PassCache, 7 in 8 "
        "requests from a hot pool: cache key/get/copy and put, facade and "
        "emission overhead"
    )
    quality_rounds = 11  # 77 hot jobs: seven whole cycles of the pool
    trace_jobs_per_s = 150.0
    predicted_layers = ("cache", "facade", "emit")
    predicted_on_hits = True
    expected_calls = (
        "compile", "frontends.detect", "target.flow", "cache.key",
        "cache.get", "cache.put", "emit.qasm2", "emit.qsharp", "pass.revgen",
        "pass.tbs", "pass.rptm",
    )
    targets = NARROW_TARGETS
    emitters = ("qasm2", "qsharp")

    HOT = tuple(
        [({"hwb": n}, target) for n in (3, 4, 5) for target in WIDE_TARGETS]
        + [({"hwb": n}, "ibm_qe5") for n in (3, 4)]
        + [({"random": 4, "seed": s}, t) for s, t in zip((1, 2, 3), NARROW_TARGETS)]
    )
    HOT_PER_ROUND = 7

    def __init__(self, seed):
        super().__init__(seed)
        self._hot = _Cycle(self.HOT)
        self._fresh_targets = _Cycle(NARROW_TARGETS)

    def round(self, rng, number):
        jobs = []
        for _ in range(self.HOT_PER_ROUND):
            spec, target = self._hot.draw(rng)
            jobs.append(("hot", spec, target, emitter_for(target), 0))
        width = 3 + number % 2
        spec = {"random": width, "seed": rng.randrange(1 << 30)}
        target = self._fresh_targets.draw(rng)
        jobs.insert(rng.randrange(len(jobs) + 1),
                    ("fresh", spec, target, emitter_for(target), 0))
        return jobs

    def prepare(self):
        """Fill a fresh cache with the hot pool; these are the references."""
        import repro
        from repro.pipeline import PassCache

        cache = PassCache()
        references = {}
        for spec, target in self.HOT:
            result = repro.compile(spec, target=target, cache=cache)
            result.emit(emitter_for(target))
            references[(tuple(sorted(spec.items())), target)] = tuple(
                result.circuit.gates
            )
        return _Warm(cache, references, _PermutationChecks())

    def run(self, ctx, job):
        import repro

        result = repro.compile(job.spec, target=job.target, cache=ctx.cache)
        text = result.emit(job.fmt)
        return Outcome(
            result.circuit, text, result,
            hit=result.cache_hits == len(result.records),
        )

    def check(self, ctx, job, out):
        reference = ctx.references.get((tuple(sorted(job.spec.items())), job.target))
        if reference is not None:
            return out.hit and tuple(out.circuit.gates) == reference
        if job.fmt == "qsharp":
            return _qsharp_realizes(out, reference_permutation(job.spec))
        return ctx.checks.check_qasm(job, out)


def _qsharp_realizes(out: Outcome, perm) -> bool:
    """Re-parse emitted Q# and simulate it against ``perm``."""
    from repro.frameworks.qsharp import parse_operation_body

    circuit = parse_operation_body(out.text, out.circuit.num_qubits)
    return realizes(circuit, perm)


def fig4_circuit(shift: int):
    """The paper's Fig. 4 ProjectQ program with a planted ``shift``.

    f = x1 x2 ^ x3 x4; the shift's X layer sits inside the Compute
    section, so Uncompute removes it again (Fig. 5 has 2 X for s = 1).
    """
    from repro.frameworks.projectq import (
        All, CircuitCollector, Compute, H, MainEngine, Measure, PhaseOracle,
        Uncompute, X,
    )

    def f(a, b, c, d):
        return (a and b) ^ (c and d)

    eng = MainEngine(backend=CircuitCollector())
    qubits = eng.allocate_qureg(4)
    with Compute(eng):
        All(H) | qubits
        for i, qubit in enumerate(qubits):
            if (shift >> i) & 1:
                X | qubit
    PhaseOracle(f) | qubits
    Uncompute(eng)
    PhaseOracle(f) | qubits
    All(H) | qubits
    Measure | qubits
    eng.flush()
    return eng.circuit


class Fig6Noisy(Workload):
    name = "fig6-noisy"
    why = (
        "Fig. 6 hidden shift to counts: compile, then exact density-matrix "
        "and 1024-shot Monte-Carlo runs under QE5 noise; engines and "
        "kernels do the work"
    )
    quality_rounds = 8  # one cycle of the shifts and of the MM pool
    trace_jobs_per_s = 6.0
    predicted_layers = ("engines",)
    expected_calls = (
        "projectq.flush", "compile", "pass.cancel", "pass.rptm", "pass.tpar",
        "pass.route", "pass.ps", "engine.density_matrix", "engine.monte_carlo",
        "dm.apply_gate", "dm.apply_channel", "kernels.apply_gate",
        "kernels.apply_matrix", "kernels.apply_pauli",
    )
    targets = ("ibm_qe5", "clifford_t")
    engines = ("density_matrix", "monte_carlo")

    #: instance seeds of the Maiorana-McFarland pool; MM circuits vary
    #: several-fold in size, so a fixed pool keeps the mix of sizes, and
    #: with it the latency tail, the same for every seed.
    MM_POOL = tuple(range(8))

    def __init__(self, seed):
        super().__init__(seed)
        self._shifts = _Cycle(range(16))
        self._instances = _Cycle(self.MM_POOL)

    def round(self, rng, number):
        jobs = [
            ("fig4", self._shifts.draw(rng), "ibm_qe5", None, rng.randrange(1 << 30))
            for _ in range(2)
        ]
        jobs.append(("mm", self._instances.draw(rng), "clifford_t", None,
                     rng.randrange(1 << 30)))
        rng.shuffle(jobs)
        return jobs

    def prepare(self):
        """Empty the process-wide cache the MM oracle builder compiles
        through, so every pass over the stream starts equally cold."""
        from repro.pipeline import shared_cache

        shared_cache().clear()
        return {}

    def run(self, ctx, job):
        import repro

        if job.kind == "fig4":
            circuit, shift = fig4_circuit(job.spec), job.spec
        else:
            from repro.algorithms import hidden_shift_circuit
            from repro.boolean.bent import HiddenShiftInstance

            instance = HiddenShiftInstance.random(3, seed=job.spec)
            circuit = hidden_shift_circuit(instance, method="mm").circuit
            shift = instance.shift
        result = repro.compile(circuit, target=job.target, cache=None)
        exact = result.simulate(engine="density_matrix", noise="qe5", seed=job.seed)
        sampled = result.simulate(
            engine="monte_carlo", noise="qe5", shots=SHOTS, seed=job.seed
        )
        return Outcome(
            result.circuit, None, result,
            extra={"shift": shift, "exact": exact, "sampled": sampled},
        )

    def check(self, ctx, job, out):
        """Noiseless rho puts probability 1 on the planted shift."""
        shift = out.extra["shift"]
        key = (shift, tuple(out.circuit.gates))
        if key not in ctx:
            ideal = out.result.simulate(engine="density_matrix", noise="none", shots=0)
            ctx[key] = abs(ideal.probability(shift) - 1.0) < 1e-9
        p = out.extra["exact"].probability(shift)
        counts = out.extra["sampled"].counts
        return ctx[key] and 0.0 < p <= 1.0 and sum(counts.values()) == SHOTS

    def quality(self, job, out):
        values = circuit_quality(out.circuit)
        values["p_correct"] = out.extra["exact"].probability(out.extra["shift"])
        return values


class Fig10Verified(Workload):
    name = "fig10-verified"
    why = (
        "Fig. 10 to Q# text: the paper's pi and seeded 3-5 variable "
        "permutations compiled for qsharp with verify=auto; the dense "
        "verify tier does most of the work"
    )
    quality_rounds = 8  # the whole permutation pool
    trace_jobs_per_s = 5.0
    predicted_layers = ("verify",)
    expected_calls = (
        "compile", "pass.tbs", "pass.revsimp", "pass.rptm", "pass.cancel",
        "verify.permutation", "verify.dense", "emit.qsharp",
    )
    targets = ("qsharp",)
    emitters = ("qsharp",)

    #: widths of the random permutations after pi in every round.
    WIDTHS = (3, 3, 4, 4, 4, 5, 5)
    #: the random permutations come from a fixed pool of this many
    #: rounds; compile and verify cost vary widely between permutations
    #: of one width, and a fixed pool keeps that mix the same per seed.
    POOL_ROUNDS = 8

    def __init__(self, seed):
        super().__init__(seed)
        self._pool = _Cycle(range(self.POOL_ROUNDS))

    def round(self, rng, number):
        pool_round = self._pool.draw(rng)
        randoms = []
        for slot, width in enumerate(self.WIDTHS):
            image = list(range(1 << width))
            random.Random(f"fig10-pool:{pool_round}:{slot}").shuffle(image)
            randoms.append(("random", tuple(image), "qsharp", "qsharp", 0))
        rng.shuffle(randoms)
        return [("pi", PAPER_PI, "qsharp", "qsharp", 0)] + randoms

    def run(self, ctx, job):
        import repro

        result = repro.compile(
            list(job.spec), target="qsharp", verify="auto", cache=None
        )
        return Outcome(result.circuit, result.emit("qsharp"), result)

    def check(self, ctx, job, out):
        return _qsharp_realizes(out, job.spec)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (Eq5Cold, WarmReplay, Fig6Noisy, Fig10Verified)
}
