"""The shared backend registry: name → backend, alias-aware and lazy.

Both backend subsystems resolve names through one :class:`Registry`
instance each — output formats in :mod:`repro.emit.registry`,
simulation engines in :mod:`repro.engines.registry`.  A registry is
configured by data only (the nouns its messages use, the protocol its
backends satisfy, and where its built-ins live), so registration,
alias eviction, listing order and error wording are written once.

Built-in backends load lazily on first registry use; user backends
join via :meth:`Registry.register`, and from then on both kinds are
indistinguishable.  Resolution is case-insensitive and alias-aware.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Sequence, Tuple, Type


class Registry:
    """Alias-aware, lazily-loaded name → backend resolution.

    Args:
        kind: noun naming one entry in messages (``"engine"``).
        plural: noun naming the listing in messages (``"engines"``).
        protocol: name of the protocol backends satisfy (``"Engine"``).
        error: exception type every registry error raises.
        required: attributes a backend must carry; ``name`` and the
            last attribute (its entry point) also duck-type instances
            passed to :meth:`get`.
        package: package holding the built-in backend modules.
        modules: built-in module names, in canonical listing order.
        attribute: module attribute holding each built-in backend.
    """

    def __init__(
        self,
        kind: str,
        plural: str,
        protocol: str,
        error: Type[Exception],
        required: Sequence[str],
        package: str,
        modules: Sequence[str],
        attribute: str,
    ) -> None:
        """Store the configuration; built-ins load on first use."""
        self.kind = kind
        self.plural = plural
        self.protocol = protocol
        self.error = error
        self.required = tuple(required)
        self.package = package
        self.modules = tuple(modules)
        self.attribute = attribute
        self._entries: Dict[str, Any] = {}
        self._aliases: Dict[str, str] = {}
        self._order: List[str] = []
        self._loaded = False

    def _ensure_builtins(self) -> None:
        """Load and register the built-in backends exactly once."""
        if self._loaded:
            return
        self._loaded = True
        for module_name in self.modules:
            module = importlib.import_module(f"{self.package}.{module_name}")
            self.register(getattr(module, self.attribute))

    def _unknown(self, name: str) -> Exception:
        """Build the unknown-name error listing every registration."""
        return self.error(
            f"unknown {self.kind} {name!r}; registered {self.plural}: "
            f"{self.describe()}"
        )

    def register(self, backend: Any, overwrite: bool = False) -> Any:
        """Register a backend under its canonical name and aliases.

        Args:
            backend: the backend to register (anything satisfying the
                registry's protocol).
            overwrite: replace an existing registration of the same
                name or alias instead of raising.

        Returns:
            The registered backend (for chaining).

        Raises:
            Exception: the registry's error type, when the backend is
                missing protocol fields, or its name/alias collides
                with an existing registration and ``overwrite`` is
                false.
        """
        for attr in self.required:
            if not hasattr(backend, attr):
                raise self.error(
                    f"{self.protocol.lower()} {backend!r} does not satisfy "
                    f"the {self.protocol} protocol: missing {attr!r}"
                )
        self._ensure_builtins()
        name = backend.name.lower()
        aliases = tuple(a.lower() for a in getattr(backend, "aliases", ()))
        taken = [
            key
            for key in (name, *aliases)
            if key in self._entries or key in self._aliases
        ]
        if taken and not overwrite:
            raise self.error(
                f"{self.kind} {taken[0]!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        # evict everything the new registration shadows: backends whose
        # canonical name collides with one of our keys, aliases colliding
        # with our keys, and the replaced backend's own old aliases
        predecessors = (
            set(self._order[: self._order.index(name)])
            if name in self._entries
            else None
        )
        for key in (name, *aliases):
            if key in self._entries:
                self.unregister(key)
            self._aliases.pop(key, None)
        for alias, canonical in list(self._aliases.items()):
            if canonical == name:
                del self._aliases[alias]
        self._entries[name] = backend
        if predecessors is not None:
            # keep the replaced backend's listing position relative to
            # the entries that survived the evictions (order is also
            # first-match priority for lookups that scan the listing)
            index = sum(1 for key in self._order if key in predecessors)
            self._order.insert(index, name)
        elif name not in self._order:
            self._order.append(name)
        for alias in aliases:
            self._aliases[alias] = name
        return backend

    def unregister(self, name: str) -> Any:
        """Remove a backend registration (built-ins included).

        Args:
            name: the canonical name to remove (not an alias).

        Returns:
            The removed backend.

        Raises:
            Exception: the registry's error type, when no backend of
                that name is registered.
        """
        self._ensure_builtins()
        key = name.lower()
        backend = self._entries.get(key)
        if backend is None:
            raise self._unknown(name)
        del self._entries[key]
        self._order.remove(key)
        for alias, canonical in list(self._aliases.items()):
            if canonical == key:
                del self._aliases[alias]
        return backend

    def get(self, spec: Any) -> Any:
        """Resolve a name (or alias, or backend instance) to its backend.

        Args:
            spec: a registered name or alias (case-insensitive), or a
                backend instance (returned as-is).

        Returns:
            The resolved backend.

        Raises:
            Exception: the registry's error type, for unknown names
                (the message lists the registrations with their
                aliases) and for values that are neither.
        """
        if not isinstance(spec, str):
            # duck-typed like register(): 'aliases' stays optional
            if hasattr(spec, self.required[-1]) and hasattr(spec, "name"):
                return spec
            # "formats" -> "a format name", "engines" -> "an engine name"
            noun = self.plural[:-1]
            article = "an" if noun[0] in "aeiou" else "a"
            raise self.error(
                f"expected {article} {noun} name or {self.protocol}, got "
                f"{type(spec).__name__}"
            )
        self._ensure_builtins()
        key = spec.lower()
        backend = self._entries.get(self._aliases.get(key, key))
        if backend is None:
            raise self._unknown(spec)
        return backend

    def names(self) -> Tuple[str, ...]:
        """Return the canonical registered names, in listing order."""
        self._ensure_builtins()
        return tuple(self._order)

    def describe(self) -> str:
        """Return ``"name (aka alias, ...), name, ..."`` for messages."""
        parts = []
        for name in self.names():
            # the live alias map, not the backends' static declarations:
            # overwrite registrations may have reassigned an alias
            aliases = tuple(
                alias
                for alias, canonical in self._aliases.items()
                if canonical == name
            )
            if aliases:
                parts.append(f"{name} (aka {', '.join(aliases)})")
            else:
                parts.append(name)
        return ", ".join(parts)
