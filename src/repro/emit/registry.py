"""The format table: name → backend resolution for every output format.

The three built-in backends form one fixed
:class:`~repro.registry.BackendTable`; :func:`get`, :func:`formats`
and :func:`describe_formats` are its bound methods.  Resolution is
case-insensitive and alias-aware (``"qasm"`` is the historical alias
of ``"qasm2"``).  The format-specific helpers (parse support,
dispatch, extension lookup) live here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..registry import BackendTable
from . import projectq, qasm2, qsharp
from .base import Emitter, EmitterError, can_parse

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

_TABLE = BackendTable(
    kind="emission format",
    plural="formats",
    protocol="Emitter",
    error=EmitterError,
    entry_point="emit",
    backends=(qasm2.EMITTER, qsharp.EMITTER, projectq.EMITTER),
)

get = _TABLE.get
formats = _TABLE.names
describe_formats = _TABLE.describe


def parseable_formats() -> Tuple[str, ...]:
    """Return the formats whose backend can ``parse``."""
    return tuple(name for name in formats() if can_parse(get(name)))


def emit(circuit: "QuantumCircuit", format: str, **opts) -> str:
    """Render a circuit in the named format.

    Args:
        circuit: the circuit to render.
        format: format name or alias.
        **opts: backend-specific options.

    Returns:
        The emitted source text.

    Raises:
        EmitterError: for unknown format names.
    """
    return get(format).emit(circuit, **opts)


def parse(text: str, format: str = "qasm2", **opts) -> "QuantumCircuit":
    """Parse source text back into a circuit.

    Args:
        text: the source text to import.
        format: format name or alias; the backend must
            implement the optional ``parse`` hook.
        **opts: backend-specific import options (e.g. the Q#
            backend's ``num_qubits=`` register-width override).

    Returns:
        The imported :class:`~repro.core.circuit.QuantumCircuit`.

    Raises:
        EmitterError: for unknown formats, or formats whose backend
            cannot parse (the message lists the ones that can).
    """
    emitter = get(format)
    if not can_parse(emitter):
        raise EmitterError(
            f"format {emitter.name!r} has no importer; formats with "
            f"round-trip parse support: "
            f"{', '.join(parseable_formats())}"
        )
    return emitter.parse(text, **opts)


def emitter_for_path(path: str) -> Emitter:
    """Resolve a file path to a backend by its extension.

    Args:
        path: a file name whose suffix selects the format (e.g.
            ``oracle.qasm`` → ``qasm2``).

    Returns:
        The backend claiming the suffix (each format has its own).

    Raises:
        EmitterError: when no backend claims the suffix; the message
            lists the known extensions.
    """
    lowered = str(path).lower()
    for name in formats():
        if lowered.endswith(get(name).file_extension):
            return get(name)
    known = ", ".join(
        f"{get(name).file_extension} ({name})" for name in formats()
    )
    raise EmitterError(
        f"no emission format claims the extension of {path!r}; known "
        f"extensions: {known}"
    )
