"""The fixed name → backend tables of :mod:`repro.emit` and :mod:`repro.engines`.

Each subsystem builds one :class:`BackendTable` of its built-in
backends at import; the set is closed.  Lookups are case-insensitive
and alias-aware; unknown names raise the subsystem's error type with
the full listing.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple, Type


class BackendTable:
    """A closed, alias-aware name → backend table.

    ``kind``, ``plural`` and ``protocol`` word its messages
    (``"engine"``, ``"engines"``, ``"Engine"``); ``entry_point``
    (``"run"``) and ``name`` duck-type instances passed to :meth:`get`.
    """

    def __init__(
        self, kind: str, plural: str, protocol: str,
        error: Type[Exception], entry_point: str, backends: Sequence[Any],
    ) -> None:
        """Build the name and alias maps, in canonical listing order."""
        self.kind, self.plural, self.protocol = kind, plural, protocol
        self.error, self.entry_point = error, entry_point
        self._entries = {backend.name: backend for backend in backends}
        self._aliases = {
            alias: backend.name for backend in backends
            for alias in backend.aliases
        }

    def get(self, spec: Any) -> Any:
        """Resolve a name (or alias, or backend instance) to its backend.

        Args:
            spec: a name or alias (case-insensitive), or a backend
                instance (returned as-is).

        Returns:
            The resolved backend.

        Raises:
            Exception: the table's error type, for unknown names (the
                message lists the names with their aliases) and for
                values that are neither.
        """
        if not isinstance(spec, str):
            if hasattr(spec, self.entry_point) and hasattr(spec, "name"):
                return spec
            noun = self.plural[:-1]  # "formats" -> "a format name"
            article = "an" if noun[0] in "aeiou" else "a"
            raise self.error(
                f"expected {article} {noun} name or {self.protocol}, got "
                f"{type(spec).__name__}"
            )
        key = spec.lower()
        backend = self._entries.get(self._aliases.get(key, key))
        if backend is None:
            raise self.error(
                f"unknown {self.kind} {spec!r}; registered {self.plural}: "
                f"{self.describe()}"
            )
        return backend

    def names(self) -> Tuple[str, ...]:
        """Return the canonical names, in listing order."""
        return tuple(self._entries)

    def describe(self) -> str:
        """Return ``"name (aka alias, ...), name, ..."`` for messages."""
        return ", ".join(
            f"{name} (aka {', '.join(backend.aliases)})"
            if backend.aliases else name
            for name, backend in self._entries.items()
        )
