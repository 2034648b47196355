"""The :class:`Emitter` protocol — what an emission backend provides.

An emitter renders a compiled :class:`~repro.core.circuit.QuantumCircuit`
as source text for one quantum programming framework (the paper's
Sec. II "assembly languages": OpenQASM, Q#, ProjectQ, ...).  Backends
are plain objects satisfying the protocol; the fixed table in
:mod:`repro.emit.registry` makes them addressable by name everywhere a
format is accepted (``Target.emitter``, ``CompilationResult.emit``,
``python -m repro compile --emit``, the RevKit shell's ``write_*``
commands).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Tuple, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit


class EmitterError(ValueError):
    """Raised for unknown formats or backends that cannot comply."""


class NonFiniteAngleError(EmitterError):
    """Raised when a gate angle is inf or nan: no output format can say it.

    Args:
        gate: the gate's name.
        value: the offending angle.
    """

    def __init__(self, gate: str, value: float) -> None:
        """Name the gate and the angle in the message."""
        super().__init__(
            f"gate {gate!r} has the non-finite angle {value!r}, which "
            "no output format can express"
        )


@runtime_checkable
class Emitter(Protocol):
    """What an emission backend must provide.

    Attributes:
        name: canonical registry name (lowercase, e.g. ``"qasm2"``).
        description: one-line summary shown by format listings.
        file_extension: preferred output suffix (e.g. ``".qasm"``),
            used by the shell's ``write_*`` commands and path-based
            workload detection.
        aliases: alternative names resolving to this backend (e.g.
            ``"qasm"`` for ``qasm2``).
    """

    name: str
    description: str
    file_extension: str
    aliases: Tuple[str, ...]

    def emit(self, circuit: "QuantumCircuit", **opts) -> str:
        """Render ``circuit`` as source text in this backend's format.

        Args:
            circuit: the compiled circuit to render.
            **opts: backend-specific options (e.g. the Q# backend's
                ``name=`` operation name).

        Returns:
            The emitted source text.
        """
        ...  # pragma: no cover


def can_parse(emitter: Emitter) -> bool:
    """Return whether a backend implements the optional ``parse`` hook.

    Args:
        emitter: the backend to probe.

    Returns:
        True when ``emitter.parse(text)`` is available.
    """
    return callable(getattr(emitter, "parse", None))
