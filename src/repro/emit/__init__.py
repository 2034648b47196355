"""Unified emission subsystem: one table of every output format.

The paper's central claim (Sec. I) is that one design-automation flow
retargets reversible logic onto many quantum programming frameworks —
Q#, ProjectQ, device-level gate sets.  This package is that claim's
emission half: every output format is an :class:`~.base.Emitter`
behind one fixed table, so ``Target.emitter``,
``CompilationResult.emit``, ``python -m repro compile --emit``, the
RevKit shell's ``write_*`` commands and path-based workload import all
resolve formats the same way.

Built-in backends (``formats()`` order):

* ``qasm2`` — OpenQASM 2.0, with round-trip ``parse``;
* ``qsharp`` — the Fig. 10 Q# operation, with ``parse``;
* ``projectq`` — ProjectQ eDSL replay script.

The set is closed: these are the outputs of the paper's two tool
flows (OpenQASM for the IBM QE via ProjectQ, Sec. VII; Q#, Fig. 10).
"""

from .base import Emitter, EmitterError, NonFiniteAngleError, can_parse
from .registry import (
    describe_formats,
    emit,
    emitter_for_path,
    formats,
    get,
    parse,
    parseable_formats,
)

__all__ = [
    "Emitter",
    "EmitterError",
    "NonFiniteAngleError",
    "can_parse",
    "describe_formats",
    "emit",
    "emitter_for_path",
    "formats",
    "get",
    "parse",
    "parseable_formats",
]
