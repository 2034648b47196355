"""The RevKit command shell.

RevKit "is executed as a command-based shell application, which allows
to perform synthesis scripts by combining a variety of different
commands" (Sec. VI).  The paper's running pipeline, Eq. (5):

    revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c

:class:`RevKitShell` implements that interface over this package's
algorithms.  Commands operate on a store holding the current function
(permutation or truth table), the current reversible (MCT) circuit,
and the current quantum circuit.  Every command is also exposed as a
Python method, mirroring RevKit's Python bindings
(``revkit.revgen(hwb=4)``).

Since PR 2 the shell is a thin front-end over the pass manager: the
store is a :class:`~repro.pipeline.FlowState` and every synthesis /
optimization / mapping command dispatches one
:class:`~repro.pipeline.Pass` through a shared
:class:`~repro.pipeline.Pipeline`, inheriting its per-pass timing,
delta records and content-keyed result cache.  ``shell.report()``
prints the accumulated per-pass statistics.

The ``write_<format>`` commands resolve through the :mod:`repro.emit`
format table: every format has a command (``write_qasm2``,
``write_qsharp``, ``write_projectq``) and so does every alias
(``write_qasm``, ``write_qs``).

Since PR 8 the ``sim_<engine>`` commands resolve the same way through
the :mod:`repro.engines` table: ``sim_statevector``,
``sim_stabilizer``, ``sim_density_matrix``, ``sim_monte_carlo`` (and
their aliases, e.g. ``sim_dm``) run the current quantum circuit and
print its outcome histogram; ``--shots``, ``--noise`` and ``--seed``
options pass through.
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Optional, Union

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..core.statistics import circuit_statistics
from ..pipeline import (
    GENERATOR_KINDS,
    CancelPass,
    FlowState,
    GeneratePass,
    MapToCliffordTPass,
    Pass,
    Pipeline,
    PipelineError,
    SimplifyPass,
    SynthesisPass,
    TemplatePass,
    TparPass,
)
from ..pipeline.runner import PassRecord
from ..synthesis.decomposition import decomposition_based_synthesis
from ..synthesis.reversible import ReversibleCircuit
from ..synthesis.transformation import transformation_based_synthesis
from ..verify import default_checker


class ShellError(RuntimeError):
    """Raised on invalid commands or missing store entries."""


class RevKitShell:
    """Command interpreter with a function/circuit store.

    Args:
        pipeline: the pass-manager runner commands dispatch through;
            by default a fresh :class:`~repro.pipeline.Pipeline` using
            the process-wide result cache, so re-running a script
            replays cached pass results.
    """

    def __init__(self, pipeline: Optional[Pipeline] = None) -> None:
        self.state = FlowState()
        self.pipeline = pipeline if pipeline is not None else Pipeline()
        self.log: List[str] = []
        self._commands: Dict[str, Callable[..., str]] = {
            "revgen": self._cmd_revgen,
            "tbs": self._cmd_tbs,
            "dbs": self._cmd_dbs,
            "esopbs": self._cmd_esopbs,
            "exs": self._cmd_exact,
            "revsimp": self._cmd_revsimp,
            "templ": self._cmd_templ,
            "rptm": self._cmd_rptm,
            "tpar": self._cmd_tpar,
            "cancel": self._cmd_cancel,
            "ps": self._cmd_ps,
            "simulate": self._cmd_simulate,
            "verify": self._cmd_verify,
        }

    # ------------------------------------------------------------------
    # store access (backed by the pipeline FlowState)
    # ------------------------------------------------------------------
    @property
    def function(self) -> Optional[Union[BitPermutation, TruthTable]]:
        """The current Boolean specification."""
        return self.state.function

    @function.setter
    def function(self, value) -> None:
        self.state.function = value

    @property
    def reversible(self) -> Optional[ReversibleCircuit]:
        """The current reversible (MCT) circuit."""
        return self.state.reversible

    @reversible.setter
    def reversible(self, value) -> None:
        self.state.reversible = value

    @property
    def quantum(self) -> Optional[QuantumCircuit]:
        """The current quantum circuit."""
        return self.state.quantum

    @quantum.setter
    def quantum(self, value) -> None:
        self.state.quantum = value

    # ------------------------------------------------------------------
    # command-line entry point
    # ------------------------------------------------------------------
    def run(self, script: str) -> List[str]:
        """Execute a semicolon-separated command script (Eq. (5) style).

        Returns one output string per command, also kept in ``log``.
        """
        outputs = []
        for part in script.split(";"):
            command = part.strip()
            if not command:
                continue
            outputs.append(self.execute(command))
        return outputs

    def execute(self, command: str) -> str:
        """Execute one command line and return its output string."""
        tokens = shlex.split(command)
        name, args = tokens[0], tokens[1:]
        handler = self._commands.get(name)
        if handler is None and name.startswith("write_"):
            format_name = name[len("write_"):]
            handler = lambda *a: self._cmd_write(format_name, *a)  # noqa: E731
        if handler is None and name.startswith("sim_"):
            engine_name = name[len("sim_"):]
            handler = lambda *a: self._cmd_sim(engine_name, *a)  # noqa: E731
        if handler is None:
            raise ShellError(
                f"unknown command {name!r} (write_<format> accepts "
                "any repro.emit format, sim_<engine> any repro.engines "
                "backend)"
            )
        output = handler(*args)
        self.log.append(f"{command}: {output}")
        return output

    def report(self) -> str:
        """Per-pass timing/delta table of every command dispatched."""
        return self.pipeline.report()

    def _apply(self, pass_: Pass) -> PassRecord:
        """Dispatch one pass through the pipeline, updating the store."""
        try:
            self.state, record = self.pipeline.apply(pass_, self.state)
        except PipelineError as exc:
            raise ShellError(str(exc)) from exc
        return record

    # ------------------------------------------------------------------
    # store helpers
    # ------------------------------------------------------------------
    def _need_permutation(self) -> BitPermutation:
        if isinstance(self.function, BitPermutation):
            return self.function
        raise ShellError("no permutation in store (run revgen first)")

    def _need_reversible(self) -> ReversibleCircuit:
        if self.reversible is None:
            raise ShellError("no reversible circuit in store")
        return self.reversible

    def _need_quantum(self) -> QuantumCircuit:
        if self.quantum is None:
            raise ShellError("no quantum circuit in store (run rptm first)")
        return self.quantum

    # ------------------------------------------------------------------
    # commands (also usable as python methods)
    # ------------------------------------------------------------------
    def _cmd_revgen(self, *args: str) -> str:
        options = _parse_options(args)
        for kind in GENERATOR_KINDS:
            if kind in options:
                n = int(options.pop(kind))
                # GeneratePass keeps the options its family accepts
                # and ignores the rest (historical shell tolerance).
                self._apply(GeneratePass(kind, n, **options))
                break
        else:
            flags = "/".join(f"--{kind}" for kind in GENERATOR_KINDS)
            raise ShellError(f"revgen needs one of {flags}")
        kind = type(self.function).__name__
        return f"generated {kind}"

    def revgen(self, **options) -> str:
        return self._cmd_revgen(
            *[f"--{k}={v}" for k, v in options.items()]
        )

    def _cmd_tbs(self, *args: str) -> str:
        options = _parse_options(args)
        self._need_permutation()
        if "bidirectional" in options or "bidir" in options:
            self._apply(SynthesisPass("tbs-bidir"))
        else:
            self._apply(SynthesisPass("tbs"))
        return f"{len(self.reversible)} gates"

    def tbs(self, bidirectional: bool = False) -> str:
        return self._cmd_tbs(*(["--bidirectional"] if bidirectional else []))

    def _cmd_dbs(self, *args: str) -> str:
        self._need_permutation()
        self._apply(SynthesisPass("dbs"))
        return f"{len(self.reversible)} gates"

    def dbs(self) -> str:
        return self._cmd_dbs()

    def _cmd_esopbs(self, *args: str) -> str:
        if not isinstance(self.function, TruthTable):
            raise ShellError("esopbs needs a single-output truth table")
        self._apply(SynthesisPass("esop"))
        return f"{len(self.reversible)} gates on {self.reversible.num_lines} lines"

    def esopbs(self) -> str:
        return self._cmd_esopbs()

    def _cmd_exact(self, *args: str) -> str:
        self._need_permutation()
        self._apply(SynthesisPass("exact"))
        return f"{len(self.reversible)} gates (optimal)"

    def exs(self) -> str:
        return self._cmd_exact()

    def _cmd_revsimp(self, *args: str) -> str:
        self._need_reversible()
        record = self._apply(SimplifyPass())
        return (
            f"{record.before['mct_gates']} -> "
            f"{record.after['mct_gates']} gates"
        )

    def revsimp(self) -> str:
        return self._cmd_revsimp()

    def _cmd_templ(self, *args: str) -> str:
        self._need_reversible()
        record = self._apply(TemplatePass())
        return (
            f"{record.before['mct_gates']} -> "
            f"{record.after['mct_gates']} gates"
        )

    def templ(self) -> str:
        return self._cmd_templ()

    def _cmd_rptm(self, *args: str) -> str:
        options = _parse_options(args)
        relative_phase = "no-relative-phase" not in options
        self._need_reversible()
        self._apply(MapToCliffordTPass(relative_phase=relative_phase))
        return (
            f"{len(self.quantum)} gates, T={self.quantum.t_count()}, "
            f"{self.quantum.num_qubits} qubits"
        )

    def rptm(self, relative_phase: bool = True) -> str:
        return self._cmd_rptm(
            *([] if relative_phase else ["--no-relative-phase"])
        )

    def _cmd_tpar(self, *args: str) -> str:
        self._need_quantum()
        record = self._apply(TparPass(pre_cancel=True))
        return (
            f"T: {record.before['t_count']} -> {record.after['t_count']}"
        )

    def tpar(self) -> str:
        return self._cmd_tpar()

    def _cmd_cancel(self, *args: str) -> str:
        self._need_quantum()
        record = self._apply(CancelPass())
        return f"{record.before['gates']} -> {record.after['gates']} gates"

    def cancel(self) -> str:
        return self._cmd_cancel()

    def _cmd_ps(self, *args: str) -> str:
        options = _parse_options(args)
        if "c" in options or "-c" in options:
            circuit = self.quantum
            if circuit is not None:
                return str(circuit_statistics(circuit))
            if self.reversible is not None:
                rev = self.reversible
                return (
                    f"lines: {rev.num_lines}  gates: {len(rev)}  "
                    f"quantum-cost: {rev.quantum_cost()}"
                )
            raise ShellError("nothing in store to print")
        if self.function is not None:
            if isinstance(self.function, BitPermutation):
                return (
                    f"permutation on {self.function.num_bits} bits, "
                    f"{len(self.function.cycles())} nontrivial cycles"
                )
            return (
                f"function on {self.function.num_vars} variables, "
                f"{self.function.count_ones()} ones"
            )
        raise ShellError("nothing in store to print")

    def ps(self, circuit: bool = False) -> str:
        return self._cmd_ps(*(["-c"] if circuit else []))

    def _cmd_simulate(self, *args: str) -> str:
        rev = self._need_reversible()
        perm = rev.permutation()
        if isinstance(self.function, BitPermutation):
            ok = perm == self.function
            return f"matches specification: {ok}"
        return f"permutation head: {perm.image[:8]}"

    def simulate(self) -> str:
        return self._cmd_simulate()

    def _cmd_verify(self, *args: str) -> str:
        """Check the quantum circuit against the reversible circuit.

        The mapped circuit may use extra (clean) ancilla lines; the
        check is that |x>|0> -> e^{i phi}|P(x)>|0> for every data
        input x, with P the reversible circuit's permutation
        (Sec. IX's verification obligation).  The tiered checker
        picks the cheapest sound tier for the width at hand (dense
        unitaries up to 10 qubits); a check it cannot run is reported
        as an explicit skip, never as a pass.
        """
        quantum = self._need_quantum()
        reversible = self._need_reversible()
        verdict = default_checker().check_mapped_circuit(quantum, reversible)
        if verdict.failed:
            return f"equivalent: False ({verdict.detail})"
        if verdict.skipped:
            return f"unverified: skipped ({verdict.detail})"
        return "equivalent: True"

    def verify(self) -> str:
        return self._cmd_verify()

    def _cmd_write(self, format: str, *args: str) -> str:
        """Write the quantum circuit in any :mod:`repro.emit` format.

        Backs every ``write_<format>`` shell command (``write_qasm2``,
        ``write_qsharp``, ``write_projectq`` and the alias forms such
        as ``write_qasm``): the format name resolves through the
        :mod:`repro.emit` format table.
        """
        from .. import emit

        if not args:
            raise ShellError(f"write_{format} needs a path")
        circuit = self._need_quantum()
        try:
            text = emit.emit(circuit, format)
        except emit.EmitterError as exc:
            raise ShellError(str(exc)) from exc
        with open(args[0], "w", encoding="utf-8") as handle:
            handle.write(text)
        return f"wrote {len(text.splitlines())} lines to {args[0]}"

    def write(self, format: str, path: str) -> str:
        """Python form of the ``write_<format>`` commands."""
        return self._cmd_write(format, path)

    def _cmd_sim(self, engine: str, *args: str) -> str:
        """Run the quantum circuit on a simulation engine.

        Backs every ``sim_<engine>`` shell command
        (``sim_statevector``, ``sim_stabilizer``,
        ``sim_density_matrix``, ``sim_monte_carlo``, alias forms like
        ``sim_dm``): the engine name resolves through the
        :mod:`repro.engines` table.
        Options: ``--shots N`` (default 1024), ``--noise MODEL`` (a
        preset like ``qe5`` or a ``p1=...`` rate list), ``--seed N``.
        A circuit without measurements is run on a terminal
        measure-all copy.
        """
        from .. import engines

        options = _parse_options(args)
        try:
            shots = int(options.pop("shots", "1024"))
            seed_text = options.pop("seed", None)
            seed = int(seed_text) if seed_text is not None else None
        except ValueError as exc:
            raise ShellError(f"sim_{engine}: {exc}") from exc
        noise = options.pop("noise", None)
        if options:
            raise ShellError(
                f"sim_{engine}: unknown options "
                f"{', '.join(sorted(options))}"
            )
        circuit = self._need_quantum()
        if not circuit.has_measurements():
            circuit = circuit.copy()
            circuit.measure_all()
        try:
            result = engines.run(
                engine, circuit, shots=shots, noise=noise, seed=seed
            )
        except (engines.EngineError, RuntimeError) as exc:
            # EngineError for registry/option problems; RuntimeError
            # covers backend refusals (e.g. a T gate reaching the
            # Clifford-only stabilizer engine).
            raise ShellError(f"sim_{engine}: {exc}") from exc
        counts = result.counts_by_bitstring()
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        total = sum(counts.values()) or 1
        histogram = ", ".join(
            f"|{bits}> {count / total:.3f}" for bits, count in top
        )
        if len(counts) > len(top):
            histogram += f", ... ({len(counts)} outcomes)"
        return f"{engines.get(engine).name} ({shots} shots): {histogram}"


def _parse_options(args) -> Dict[str, str]:
    """Parse ``--key value`` / ``--key=value`` / ``-c`` style options."""
    options: Dict[str, str] = {}
    tokens = list(args)
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.startswith("--"):
            body = token[2:]
            if "=" in body:
                key, value = body.split("=", 1)
                options[key] = value
            elif index + 1 < len(tokens) and not tokens[index + 1].startswith("-"):
                options[body] = tokens[index + 1]
                index += 1
            else:
                options[body] = "1"
        elif token.startswith("-"):
            options[token[1:]] = "1"
        else:
            options[token] = "1"
        index += 1
    return options


# synthesis handles for PermutationOracle(synth=...), paper-style
tbs = transformation_based_synthesis
dbs = decomposition_based_synthesis
