"""Chaos-suite fixtures: failing OS calls and failing or slow passes.

The disk tier's failure handling (retries, counted errors,
quarantine, degraded mode) is reached through real calls: the
:func:`os_fault` fixture patches ``os.listdir``, ``os.unlink``,
``os.replace`` or the cache module's ``open`` so that calls on paths
inside one cache directory fail on a fixed schedule, while every
other path keeps working.  :func:`pass_fault` patches a pass class's
``run`` so that one named pass fails or stalls.
"""

import builtins
import os
import time

import pytest

from repro.pipeline import cache as cache_module

#: The OS calls :func:`os_fault` can break: the owner it patches and
#: how many leading arguments are paths.
_CALLS = {
    "listdir": (os, 1),
    "unlink": (os, 1),
    "replace": (os, 2),
    "open": (cache_module, 1),
}


class OsFault:
    """One failing OS call: skip ``skip`` hits, then fail ``times``.

    ``times=None`` fails every hit after the skipped ones.  ``hits``
    counts the calls that touched the directory; :meth:`heal` makes
    every later call succeed.
    """

    def __init__(self, call, directory, times, skip, error):
        self.call = call
        self.directory = os.path.abspath(os.fspath(directory))
        self.times = times
        self.skip = skip
        self.error = error
        self.hits = 0

    def heal(self):
        """Let every later call through."""
        self.times = 0

    def touches(self, path):
        """Return whether ``path`` is the directory or lies inside it."""
        path = os.path.abspath(os.fspath(path))
        return path == self.directory or path.startswith(
            self.directory + os.sep
        )

    def visit(self, paths):
        """Count a hit on the directory and raise when one is due."""
        if not any(
            isinstance(path, (str, os.PathLike)) and self.touches(path)
            for path in paths
        ):
            return
        self.hits += 1
        due = self.hits - self.skip
        if due > 0 and (self.times is None or due <= self.times):
            raise self.error(f"injected {self.call} failure #{self.hits}")


@pytest.fixture
def os_fault(monkeypatch):
    """Return ``install(call, directory, times=1, skip=0, error=OSError)``.

    ``call`` is ``"listdir"``, ``"unlink"``, ``"replace"`` or
    ``"open"``; the returned :class:`OsFault` fails that call for
    paths inside ``directory`` on its schedule.  The patch lasts until
    the test ends.
    """

    def install(call, directory, times=1, skip=0, error=OSError):
        owner, path_args = _CALLS[call]
        real = getattr(owner, call, builtins.open)
        fault = OsFault(call, directory, times, skip, error)

        def failing(*args, **kwargs):
            fault.visit(args[:path_args])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, call, failing, raising=False)
        return fault

    return install


@pytest.fixture
def pass_fault(monkeypatch):
    """Return ``install(cls, name, error=RuntimeError, seconds=0)``.

    Patches ``cls.run`` so that the first run of the pass called
    ``name`` sleeps ``seconds`` and then raises ``error`` (with
    ``error=None`` it only sleeps); every later run, and every other
    pass, runs untouched.
    """

    def install(cls, name, error=RuntimeError, seconds=0.0):
        real = cls.run
        spent = []

        def run(self, state):
            if self.name == name and not spent:
                spent.append(True)
                time.sleep(seconds)
                if error is not None:
                    raise error(f"injected {name} failure")
            return real(self, state)

        monkeypatch.setattr(cls, "run", run)

    return install
