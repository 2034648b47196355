"""Fixtures shared by the verification suites."""

import pytest

from repro.verify import checker


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty the checker's per-process block memos for one test, so
    that no count it makes depends on the tests before it; returns the
    names of the memos."""
    names = ("_passed_blocks", "_passed_groups", "_local_keys")
    for name in names:
        monkeypatch.setattr(checker, name, {})
    return names
