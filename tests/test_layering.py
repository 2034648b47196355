"""Import layering: the IR does not know its printers, nor they the frameworks.

``repro.core`` is the circuit IR every layer builds on, so it imports
nothing from ``repro.emit``: emission is ``repro.emit.emit(circuit,
fmt)``.  ``repro.emit`` owns the output dialects, the Q# one included,
so it imports nothing from ``repro.frameworks``, which assembles
programs on top of it.  Both hold at module level and inside functions.
"""

from _helpers import imports_into


def test_core_imports_nothing_from_emit():
    assert imports_into("core", ("emit",)) == []


def test_emit_imports_nothing_from_frameworks():
    assert imports_into("emit", ("frameworks",)) == []
