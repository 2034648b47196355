"""Command-line front door: ``python -m repro compile ...``.

Runs the paper's Eq. (5) story from the shell without the REPL:

.. code-block:: console

    $ python -m repro compile hwb=4 --target clifford_t --stats --report
    $ python -m repro compile hwb=4 --deadline 5
    $ python -m repro compile '(a and b) ^ (c and d)' --emit qasm2
    $ python -m repro compile perm:0,2,3,5,7,1,4,6 --target qsharp \
          --emit qsharp
    $ python -m repro compile oracle.qasm --target ibm_qe5 --emit qasm2
    $ python -m repro compile hwb=4 --target ibm_qe5 --simulate \
          --shots 4096 --seed 7
    $ python -m repro targets
    $ python -m repro formats
    $ python -m repro engines
    $ python -m repro cache stats --cache-dir ~/.repro-cache --json
    $ python -m repro cache gc --cache-dir ~/.repro-cache --max-bytes 1048576
    $ python -m repro cache clear --cache-dir ~/.repro-cache

Workload argument forms:

* a revgen generator spec — ``hwb=4``, ``adder=4,const=3``;
* a Boolean expression — ``'(a and b) ^ (c and d)'``;
* ``perm:0,2,3,...`` — a permutation image;
* ``tt:<nvars>:<hexbits>`` — an explicit truth table;
* a path to a circuit file importable through :mod:`repro.emit`
  (``.qasm``), or a ``.json`` workload file.

``--emit`` and the ``formats`` subcommand list the :mod:`repro.emit`
format table; ``--engine`` and the ``engines`` subcommand list the
:mod:`repro.engines` table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from . import emit as emit_registry
from . import engines as engine_registry
from .compiler import compile as compile_workload, get_target, list_targets
from .pipeline.state import PipelineError


def _load_workload(spec: str) -> Any:
    """Translate the CLI workload argument into a workload object."""
    if os.path.exists(spec):
        if spec.endswith(".json"):
            with open(spec) as stream:
                return json.load(stream)
        # circuit files resolve by extension through the emit registry
        return Path(spec)
    if spec.startswith("perm:"):
        from .boolean.permutation import BitPermutation

        image = [int(v) for v in spec[len("perm:"):].split(",")]
        return BitPermutation(image)
    if spec.startswith("tt:"):
        from .boolean.truth_table import TruthTable

        try:
            _, num_vars, hexbits = spec.split(":")
        except ValueError:
            raise SystemExit(
                "error: truth-table workload must be tt:<nvars>:<hexbits>"
            ) from None
        return TruthTable.from_hex(int(num_vars), hexbits)
    return spec


def _cmd_compile(args: argparse.Namespace) -> int:
    """Run the ``compile`` subcommand."""
    try:
        if args.emit:
            # fail on format typos before paying for the compilation
            emit_registry.get(args.emit)
        workload = _load_workload(args.workload)
        result = compile_workload(
            workload,
            target=args.target,
            verify=args.verify,
            cache=args.cache_dir if args.cache_dir else "shared",
            deadline=args.deadline,
            engine=args.engine,
        )
    except (PipelineError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a pass's own error carries its flow position as a note
        for note in getattr(exc, "__notes__", ()):
            print(f"  {note}", file=sys.stderr)
        return 2
    out = sys.stdout
    try:
        if args.emit:
            info = sys.stderr
            print(result.emit(args.emit), file=out, end="")
        else:
            info = out
            print(result.summary(), file=info)
        if args.verify not in (None, "off"):
            print(result.verification_report(), file=info)
        if args.report:
            print(result.report(), file=info)
        if args.stats:
            stats = result.statistics
            if stats is None and result.circuit is not None:
                from .core.statistics import circuit_statistics

                stats = circuit_statistics(result.circuit)
            if stats is not None:
                print(stats, file=info)
            else:
                metrics = ", ".join(
                    f"{k}={v}" for k, v in sorted(result.metrics().items())
                )
                print(metrics or "(no metrics)", file=info)
        if (
            args.simulate
            or args.shots is not None
            or args.noise is not None
            or args.seed is not None
        ):
            sim = result.simulate(
                # --engine is recorded on the result by compile()
                shots=args.shots if args.shots is not None else 1024,
                noise=args.noise,
                seed=args.seed,
            )
            print(_counts_table(sim), file=info)
    except (PipelineError, engine_registry.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _counts_table(result) -> str:
    """Format a simulation result as an aligned counts table.

    One row per observed outcome, most frequent first: the bitstring,
    the shot count, and the frequency — plus the exact probability
    column when the backend computed one (density-matrix runs).
    """
    counts = result.counts_by_bitstring()
    if not counts:
        return "(no measurement results)"
    shots = sum(counts.values()) or 1
    exact = getattr(result, "exact_probabilities", None)
    width = max(len(bits) for bits in counts)
    lines = []
    for bits, count in sorted(
        counts.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        row = f"{bits:>{width}}  {count:>6}  {count / shots:.4f}"
        if exact is not None:
            row += f"  exact={result.probability(int(bits, 2)):.4f}"
        lines.append(row)
    return "\n".join(lines)


def _quarantined_entries(path: str) -> int:
    """Count the entry files sitting in a cache's ``quarantine/``."""
    from .pipeline.cache import QUARANTINE_DIR

    try:
        return len(os.listdir(os.path.join(path, QUARANTINE_DIR)))
    except FileNotFoundError:
        return 0


def _non_negative(text: str) -> int:
    """Parse a count flag (``--shots``, ``cache gc`` budgets); refuse < 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _cmd_cache(args: argparse.Namespace) -> int:
    """Run the ``cache`` subcommand (stats / gc / clear)."""
    from .pipeline.cache import PassCache

    path = args.cache_dir
    if not os.path.isdir(path):
        print(
            f"error: cache directory {path!r} does not exist",
            file=sys.stderr,
        )
        return 2
    cache = PassCache(path=path)
    try:
        if args.action == "stats":
            entries, size = cache.disk_usage()
            payload = {
                "path": path,
                "entries": entries,
                "bytes": size,
                "quarantined": _quarantined_entries(path),
            }
        elif args.action == "gc":
            swept = cache.gc(
                max_entries=args.max_entries,
                max_bytes=args.max_bytes,
                validate=True,
            )
            payload = {"path": path, **swept}
        else:  # clear
            entries, size = cache.clear(disk=True)
            payload = {"path": path, "cleared": entries, "bytes_freed": size}
    except OSError as exc:
        print(
            f"error: cannot list cache directory {path!r}: "
            f"{exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(key) for key in payload)
        for key in sorted(payload):
            print(f"{key:<{width}}  {payload[key]}")
    return 0


def _cmd_targets(_args: argparse.Namespace) -> int:
    """Run the ``targets`` subcommand (list the target presets)."""
    names = list_targets()
    width = max(len(name) for name in names)
    for name in names:
        target = get_target(name)
        extras = [f"level={target.optimization_level}"]
        if target.coupling is not None:
            extras.append("routed")
        if target.emitter:
            extras.append(f"emit={target.emitter}")
        print(
            f"{name:<{width}}  {target.description}"
            f"  [{', '.join(extras)}]"
        )
    return 0


def _cmd_formats(args: argparse.Namespace) -> int:
    """Run the ``formats`` subcommand (list the emission formats)."""
    names = emit_registry.formats()
    if args.names:
        for name in names:
            print(name)
        return 0
    width = max(len(name) for name in names)
    for name in names:
        emitter = emit_registry.get(name)
        extras = [emitter.file_extension]
        aliases = tuple(getattr(emitter, "aliases", ()))
        if aliases:
            extras.append(f"aka {'/'.join(aliases)}")
        if emit_registry.can_parse(emitter):
            extras.append("round-trip")
        print(
            f"{name:<{width}}  {emitter.description}"
            f"  [{', '.join(extras)}]"
        )
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    """Run the ``engines`` subcommand (list simulation backends)."""
    names = engine_registry.engines()
    if args.names:
        for name in names:
            print(name)
        return 0
    width = max(len(name) for name in names)
    for name in names:
        engine = engine_registry.get(name)
        extras = [engine.capabilities.describe()]
        aliases = tuple(getattr(engine, "aliases", ()))
        if aliases:
            extras.append(f"aka {'/'.join(aliases)}")
        print(
            f"{name:<{width}}  {engine.description}"
            f"  [{', '.join(extras)}]"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="repro compiler facade (Soeken/Haener/Roetteler, "
        "DATE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser(
        "compile",
        help="compile a workload for a target (the one front door)",
    )
    cmd.add_argument(
        "workload",
        help="generator spec (hwb=4), Boolean expression, "
        "perm:..., tt:<n>:<hex>, or a .qasm/.json file",
    )
    cmd.add_argument(
        "--target",
        default=None,
        help=f"target preset ({', '.join(list_targets())}); "
        "default clifford_t",
    )
    cmd.add_argument(
        "--verify",
        nargs="?",
        const="auto",
        default=None,
        choices=("auto", "strict", "off"),
        help="fail-fast tiered verification of every pass: 'auto' "
        "(also the bare-flag default) picks the cheapest sound tier "
        "per pass, 'strict' additionally fails on skipped checks, "
        "'off' disables; omitted, the target's verify field applies",
    )
    cmd.add_argument(
        "--stats",
        action="store_true",
        help="print the final circuit statistics (ps -c)",
    )
    cmd.add_argument(
        "--report",
        action="store_true",
        help="print the per-pass timing/delta table",
    )
    cmd.add_argument(
        "--emit",
        default=None,
        metavar="FORMAT",
        help="print the compiled circuit in this format on stdout "
        f"({', '.join(emit_registry.formats())}, or an alias)",
    )
    cmd.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="simulation backend for --simulate "
        f"({', '.join(engine_registry.engines())}, or an alias); "
        "default follows the target",
    )
    cmd.add_argument(
        "--simulate",
        action="store_true",
        help="run the compiled circuit on the selected engine and "
        "print a counts table (implied by --shots/--noise/--seed)",
    )
    cmd.add_argument(
        "--shots",
        type=_non_negative,
        default=None,
        metavar="N",
        help="measurement repetitions for --simulate (default 1024)",
    )
    cmd.add_argument(
        "--noise",
        default=None,
        metavar="MODEL",
        help="noise model for --simulate: a preset (qe5, none) or a "
        "rate list like p1=0.001,p2=0.03; default follows the target",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="RNG seed for reproducible --simulate sampling",
    )
    cmd.add_argument(
        "--cache-dir",
        default=None,
        help="persistent pass-cache directory (reused across runs)",
    )
    cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="compute budget for the whole compilation; an expired "
        "budget fails with a typed deadline error naming the flow "
        "position",
    )
    cmd.set_defaults(func=_cmd_compile)

    lst = sub.add_parser("targets", help="list the target presets")
    lst.set_defaults(func=_cmd_targets)

    fmts = sub.add_parser(
        "formats",
        help="list the emission formats of repro.emit",
    )
    fmts.add_argument(
        "--names",
        action="store_true",
        help="print bare format names, one per line (for scripting)",
    )
    fmts.set_defaults(func=_cmd_formats)

    engs = sub.add_parser(
        "engines",
        help="list the simulation engines of repro.engines",
    )
    engs.add_argument(
        "--names",
        action="store_true",
        help="print bare engine names, one per line (for scripting)",
    )
    engs.set_defaults(func=_cmd_engines)

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain a persistent pass-cache directory",
    )
    cache.add_argument(
        "action",
        choices=("stats", "gc", "clear"),
        help="stats: entry/byte totals and the quarantined count; gc: "
        "LRU sweep down to the given budgets (also moves corrupt "
        "entries into quarantine/ and drops stale spill temp files); "
        "clear: delete every cache entry (quarantine/ is kept)",
    )
    cache.add_argument(
        "--cache-dir",
        required=True,
        help="persistent pass-cache directory to operate on",
    )
    cache.add_argument(
        "--max-entries",
        type=_non_negative,
        default=None,
        help="gc: evict least-recently-used entries beyond this count",
    )
    cache.add_argument(
        "--max-bytes",
        type=_non_negative,
        default=None,
        help="gc: evict least-recently-used entries beyond this size",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="print the result as one JSON object",
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
