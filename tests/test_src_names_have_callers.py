"""Every public top-level name in ``src/repro`` has a caller outside tests.

Code that exists only to be exercised by its own tests does not belong
in the library.  This is a mark-and-sweep over names:

* **Roots** are every reference in ``examples/``, ``benchmarks/`` and
  ``perfbench/``, and every reference in a ``src/repro`` module (its
  ``__main__`` included) that lies outside a public top-level
  ``def``/``class``.  A package ``__init__``'s import statements and
  its ``__all__`` are re-exports, not callers, and are skipped.
* A public top-level definition is **live** once a live reference names
  it; its own body then contributes references.  A recursive call does
  not keep a function alive, and neither does a cluster of names that
  only call each other.

A reference is an identifier, an attribute name, an imported name, or
a word inside a string literal (registries load modules by string).
Docstrings and comments are not references.  A name nothing live
reaches belongs in ``tests/`` (as an oracle such as
``tests/_dense_reference.py``) or nowhere.  There is no allowlist.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """The names and string-literal words a syntax tree uses."""
    words, docstrings = set(), set()
    for node in ast.walk(tree):  # breadth first: parents come first
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            docstrings.add(id(node.value))
        elif isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            words.update(re.findall(r"\w+", node.value))
    return words


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_without_callers():
    roots = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= _references(_parse(path))
    definitions = []  # (location, name, references of its body)
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        location = path.relative_to(SRC.parent).as_posix()
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                body = _references(node) - {node.name}
                definitions.append((location, node.name, body))
            elif not (path.name == "__init__.py" and _is_reexport(node)):
                roots |= _references(node)
    live, frontier = set(), roots
    while frontier:
        reached = set()
        for location, name, body in definitions:
            if name in frontier and (location, name) not in live:
                live.add((location, name))
                reached |= body
        frontier = reached
    return [
        f"{location}::{name}"
        for location, name, _ in definitions
        if (location, name) not in live
    ]


def test_every_public_src_name_has_a_caller_outside_tests():
    orphans = _names_without_callers()
    assert not orphans, (
        "public names only tests reach (move the oracles into tests/, "
        "delete the rest):\n" + "\n".join(orphans)
    )
