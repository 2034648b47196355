"""Workload frontends: normalize any specification shape for compilation.

``repro.compile()`` accepts *workloads* — whatever object the caller
already has in hand: a :class:`~repro.boolean.truth_table.TruthTable`,
a :class:`~repro.boolean.permutation.BitPermutation`, a Python
predicate, a Boolean expression string, an ESOP cube list, a BDD node,
a revgen-style generator spec, or an existing circuit.
:func:`detect_workload` maps each shape onto a :class:`Workload`: a
:class:`~repro.pipeline.state.FlowState` seed, an optional prelude
pass (specification generation), and a recommended synthesis method
that the :class:`~.target.Target` resolution consumes.

Detection is strict about ambiguity: an integer sequence that is both
a valid permutation image and a valid truth-table value list raises a
:class:`WorkloadError` (a ``TypeError``) telling the caller which
wrapper type to use instead of silently guessing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from ..boolean.bdd import Bdd
from ..boolean.cube import Cube, esop_to_truth_table
from ..boolean.expression import predicate_to_truth_table
from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import MultiTruthTable, TruthTable
from ..core.circuit import QuantumCircuit
from ..pipeline.passes import GENERATOR_KINDS, GeneratePass, Pass
from ..pipeline.state import FlowState
from ..synthesis.reversible import ReversibleCircuit

#: Synthesis method recommended per specification type.
DEFAULT_SYNTHESIS = {"permutation": "tbs", "truth_table": "esop"}

#: One-line description of every accepted workload shape, used to
#: build actionable :class:`WorkloadError` messages.
SUPPORTED_SHAPES = (
    "TruthTable / MultiTruthTable (reversible)",
    "BitPermutation (or an int sequence permuting 0..2^n-1)",
    "a Python predicate (callable over bool arguments)",
    "a Boolean expression string, e.g. '(a and b) ^ (c and d)'",
    "a revgen generator spec: 'hwb=4' or {'hwb': 4}",
    "an ESOP cube list (sequence of Cube)",
    "a BDD function: (Bdd, node) pair",
    "QuantumCircuit / ReversibleCircuit (synthesis is skipped)",
    "OpenQASM 2.0 source text, or a pathlib.Path to an importable "
    "circuit file (round-trips through the repro.emit registry)",
    "FlowState / Workload (passed through)",
)

_GENERATOR_SPEC_RE = re.compile(r"^\s*\w+\s*=\s*-?\d+(\s*,\s*\w+\s*=\s*-?\d+)*\s*$")


class WorkloadError(TypeError):
    """Raised when an input cannot be interpreted as a workload.

    A ``TypeError`` subclass, so callers catching ``TypeError`` keep
    working; the message names the input's type and lists the
    supported shapes.
    """


@dataclass(frozen=True)
class Workload:
    """A normalized compilation input.

    Attributes:
        kind: detected shape — ``generator``, ``permutation``,
            ``truth_table``, ``circuit``, ``reversible`` or ``state``.
        description: human-readable workload summary for reports.
        state: the :class:`~repro.pipeline.state.FlowState` seed.
        prelude: passes to run before synthesis (the generator pass
            for revgen-style specs; usually empty).
        synthesis: recommended synthesis method (name or callable);
            ``None`` when no synthesis stage applies.
        needs_synthesis: whether target resolution should insert a
            synthesis pass (false for circuit passthrough).
    """

    kind: str
    description: str
    state: FlowState
    prelude: Tuple[Pass, ...] = ()
    synthesis: Optional[Union[str, Callable]] = None
    needs_synthesis: bool = True


def _unsupported(obj: Any, hint: str = "") -> WorkloadError:
    """Build the actionable error for an undetectable workload."""
    lines = [f"cannot interpret {type(obj).__name__!r} object as a workload"]
    if hint:
        lines.append(hint)
    lines.append("supported workload shapes:")
    lines.extend(f"  - {shape}" for shape in SUPPORTED_SHAPES)
    return WorkloadError("\n".join(lines))


def _is_power_of_two(n: int) -> bool:
    """Return whether ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def _expression_names(expr: str) -> Tuple[str, ...]:
    """Extract the sorted free variable names of a Boolean expression."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise _unsupported(
            expr,
            hint=(
                f"string {expr!r} is neither a generator spec "
                f"(families: {', '.join(GENERATOR_KINDS)}) nor a "
                f"parseable Boolean expression: {exc.msg}"
            ),
        ) from exc
    names = sorted(
        {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    )
    if not names:
        raise _unsupported(
            expr, hint="Boolean expression has no free variables"
        )
    return tuple(names)


def expression_to_truth_table(expr: str) -> TruthTable:
    """Evaluate a Boolean expression string over its free variables.

    Variables are bound in sorted name order: in
    ``"(a and b) ^ (c and d)"`` the variable ``a`` is input bit 0.
    The expression is evaluated *symbolically* on the AST (the same
    evaluator Python predicates use), never ``eval``-uated — a string
    workload cannot execute code, and the translation is exact rather
    than tabulated.

    Args:
        expr: a Boolean expression over ``and``/``or``/``not``,
            ``&``/``|``/``^``/``~``, ``==``/``!=``, conditionals and
            the constants 0/1, e.g. ``"a and not b"``.

    Returns:
        The evaluated :class:`~repro.boolean.truth_table.TruthTable`.

    Raises:
        WorkloadError: when the string does not parse, or uses syntax
            outside the Boolean fragment (pass a Python predicate for
            arithmetic like ``a + b >= 1``).
    """
    from ..boolean.expression import ExpressionError, _eval

    names = _expression_names(expr)
    tree = ast.parse(expr, mode="eval")
    env = {
        name: TruthTable.projection(len(names), i)
        for i, name in enumerate(names)
    }
    try:
        return _eval(tree.body, env, len(names))
    except ExpressionError as exc:
        raise _unsupported(
            expr,
            hint=(
                f"expression {expr!r} uses syntax outside the Boolean "
                f"fragment ({exc}); pass a Python predicate (def/"
                "lambda) for arithmetic predicates"
            ),
        ) from exc


def _generator_workload(options: dict) -> Workload:
    """Build a generator-prelude workload from revgen-style options.

    Exactly one generator-family key (``hwb=4``, ``adder=4``, ...)
    selects kind and size; the rest (``seed``, ``const``, ``amount``)
    are family options.
    """
    kinds = [key for key in options if key in GENERATOR_KINDS]
    if len(kinds) != 1:
        raise _unsupported(
            options,
            hint=(
                "generator spec needs exactly one generator family key "
                f"out of: {', '.join(GENERATOR_KINDS)}"
            ),
        )
    params = dict(options)
    prelude = GeneratePass(kinds[0], params.pop(kinds[0]), **params)
    label = ",".join(f"{k}={v}" for k, v in sorted(options.items()))
    return Workload(
        kind="generator",
        description=f"revgen({label})",
        state=FlowState(),
        prelude=(prelude,),
        synthesis="tbs",
    )


def _first_significant_line(text: str) -> str:
    """Return the first non-blank, non-comment line of QASM-ish text."""
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if line:
            return line
    return ""


def _looks_like_qasm(text: str) -> bool:
    """Detect OpenQASM source text (comments/blank lines allowed)."""
    return _first_significant_line(text).startswith("OPENQASM")


def _qasm_workload(text: str, origin: str = "") -> Workload:
    """Import OpenQASM source text as a circuit workload.

    Version and syntax rejection (including the OpenQASM 3 hint)
    lives in the parser itself, so every entry point — registry
    ``parse``, shell, CLI, this frontend — reports the same message.
    """
    from .. import emit

    try:
        circuit = emit.parse(text, "qasm2")
    except emit.EmitterError as exc:
        raise _unsupported(text, hint=str(exc)) from exc
    label = origin or f"{circuit.num_qubits} qubits"
    return Workload(
        kind="circuit",
        description=f"qasm({label})",
        state=FlowState(quantum=circuit),
        needs_synthesis=False,
    )


def _path_workload(path: Path) -> Workload:
    """Import a circuit file, resolving the format by extension."""
    from .. import emit

    try:
        emitter = emit.emitter_for_path(str(path))
    except emit.EmitterError as exc:
        raise _unsupported(path, hint=str(exc)) from exc
    if not emit.can_parse(emitter):
        raise _unsupported(
            path,
            hint=(
                f"format {emitter.name!r} has no importer; formats "
                "with round-trip parse support: "
                f"{', '.join(emit.parseable_formats())}"
            ),
        )
    if emitter.name == "qasm2":
        return _qasm_workload(path.read_text(), origin=path.name)
    try:
        circuit = emitter.parse(path.read_text())
    except emit.EmitterError as exc:
        raise _unsupported(path, hint=str(exc)) from exc
    return Workload(
        kind="circuit",
        description=f"{emitter.name}({path.name})",
        state=FlowState(quantum=circuit),
        needs_synthesis=False,
    )


def _parse_spec_string(text: str) -> Workload:
    """Interpret a string as a generator spec or Boolean expression."""
    if _looks_like_qasm(text):
        return _qasm_workload(text)
    if _GENERATOR_SPEC_RE.match(text):
        options = {}
        for item in text.split(","):
            key, _, value = item.partition("=")
            options[key.strip()] = int(value)
        if any(key in GENERATOR_KINDS for key in options):
            return _generator_workload(options)
    table = expression_to_truth_table(text)
    return Workload(
        kind="truth_table",
        description=f"expr({text!r}, {table.num_vars} vars)",
        state=FlowState(function=table),
        synthesis=DEFAULT_SYNTHESIS["truth_table"],
    )


def _sequence_workload(values: Sequence[Any]) -> Workload:
    """Classify an int sequence as permutation image or value list."""
    items = list(values)
    if items and all(isinstance(v, Cube) for v in items):
        num_vars = max(
            (v.mask.bit_length() for v in items), default=0
        )
        table = esop_to_truth_table(items, num_vars)
        return Workload(
            kind="truth_table",
            description=f"esop({len(items)} cubes, {num_vars} vars)",
            state=FlowState(function=table),
            synthesis=DEFAULT_SYNTHESIS["truth_table"],
        )
    if not items or not all(isinstance(v, (int, bool)) for v in items):
        raise _unsupported(values)
    if not _is_power_of_two(len(items)):
        raise _unsupported(
            values,
            hint=(
                f"sequence length {len(items)} is not a power of two, "
                "so it is neither a permutation image nor a "
                "truth-table value list"
            ),
        )
    ints = [int(v) for v in items]
    is_permutation = sorted(ints) == list(range(len(ints)))
    is_value_list = all(v in (0, 1) for v in ints)
    if is_permutation and is_value_list:
        raise _unsupported(
            values,
            hint=(
                f"sequence {ints!r} is ambiguous: it is both a "
                "permutation of 0..2^n-1 and a 0/1 truth-table value "
                "list; wrap it in BitPermutation(...) or "
                "TruthTable.from_values(...) to disambiguate"
            ),
        )
    if is_permutation:
        return detect_workload(BitPermutation(ints))
    if is_value_list:
        return detect_workload(TruthTable.from_values(ints))
    raise _unsupported(
        values,
        hint=(
            "int sequence is neither a permutation of 0..2^n-1 nor a "
            "0/1 truth-table value list"
        ),
    )


def detect_workload(obj: Any) -> Workload:
    """Auto-detect a workload's shape and normalize it.

    Args:
        obj: any supported workload shape (see
            :data:`SUPPORTED_SHAPES`).

    Returns:
        The normalized :class:`Workload`.

    Raises:
        WorkloadError: for unsupported or ambiguous inputs (``None``
            included); the message names the input's type, the
            supported shapes and, for ambiguous sequences, the
            wrapper types that disambiguate.
    """
    if isinstance(obj, Workload):
        return obj
    if isinstance(obj, FlowState):
        needs_synthesis = (
            obj.function is not None
            and obj.reversible is None
            and obj.quantum is None
        )
        synthesis = None
        if needs_synthesis:
            key = (
                "permutation"
                if isinstance(obj.function, BitPermutation)
                else "truth_table"
            )
            synthesis = DEFAULT_SYNTHESIS[key]
        return Workload(
            kind="state",
            description="flow state",
            state=obj,
            synthesis=synthesis,
            needs_synthesis=needs_synthesis,
        )
    if isinstance(obj, BitPermutation):
        return Workload(
            kind="permutation",
            description=f"permutation({obj.num_bits} bits)",
            state=FlowState(function=obj),
            synthesis=DEFAULT_SYNTHESIS["permutation"],
        )
    if isinstance(obj, TruthTable):
        return Workload(
            kind="truth_table",
            description=f"truth_table({obj.num_vars} vars)",
            state=FlowState(function=obj),
            synthesis=DEFAULT_SYNTHESIS["truth_table"],
        )
    if isinstance(obj, MultiTruthTable):
        if not obj.is_reversible():
            raise _unsupported(
                obj,
                hint=(
                    "multi-output function is not reversible; embed it "
                    "first (repro.synthesis.embedding.bennett_embedding) "
                    "or compile one output TruthTable at a time"
                ),
            )
        return detect_workload(BitPermutation.from_truth_tables(obj))
    if isinstance(obj, QuantumCircuit):
        return Workload(
            kind="circuit",
            description=f"circuit({obj.name!r}, {obj.num_qubits} qubits)",
            state=FlowState(quantum=obj),
            needs_synthesis=False,
        )
    if isinstance(obj, ReversibleCircuit):
        return Workload(
            kind="reversible",
            description=(
                f"reversible({obj.name!r}, {obj.num_lines} lines)"
            ),
            state=FlowState(reversible=obj),
            needs_synthesis=False,
        )
    if isinstance(obj, str):
        return _parse_spec_string(obj)
    if isinstance(obj, Path):
        return _path_workload(obj)
    if isinstance(obj, dict):
        return _generator_workload(obj)
    if (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], Bdd)
    ):
        manager, node = obj
        table = manager.to_truth_table(node)
        return Workload(
            kind="truth_table",
            description=f"bdd(node {node}, {manager.num_vars} vars)",
            state=FlowState(function=table),
            synthesis="bdd",
        )
    if isinstance(obj, type):
        raise _unsupported(
            obj,
            hint=(
                f"got the class {obj.__name__!r} itself, not an "
                "instance — construct the specification first"
            ),
        )
    if callable(obj):
        table = predicate_to_truth_table(obj)
        name = getattr(obj, "__name__", "predicate")
        return Workload(
            kind="truth_table",
            description=f"predicate({name}, {table.num_vars} vars)",
            state=FlowState(function=table),
            synthesis=DEFAULT_SYNTHESIS["truth_table"],
        )
    if isinstance(obj, Sequence):
        return _sequence_workload(obj)
    raise _unsupported(obj)


def as_truth_table(obj: Any) -> TruthTable:
    """Normalize any function-shaped workload to a single truth table.

    The algorithm entry points (Grover, hidden shift) use this to
    accept the same workload shapes as :func:`repro.compile`.

    Args:
        obj: a TruthTable, predicate, expression string, cube list, or
            BDD pair.

    Returns:
        The workload's single-output truth table.

    Raises:
        WorkloadError: when the workload is not function-shaped (e.g. a
            circuit or permutation) or cannot be detected.
    """
    if isinstance(obj, TruthTable):
        return obj
    if callable(obj) and not isinstance(obj, type):
        return predicate_to_truth_table(obj)
    workload = detect_workload(obj)
    function = workload.state.function
    if isinstance(function, TruthTable):
        return function
    raise _unsupported(
        obj,
        hint=(
            f"workload of kind {workload.kind!r} does not describe a "
            "single-output Boolean function"
        ),
    )
