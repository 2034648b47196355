"""Every public name in ``src/repro`` has a caller outside tests.

Code that exists only to be exercised by its own tests does not belong
in the library.  This is a mark-and-sweep over names:

* **Roots** are every reference in ``examples/``, ``benchmarks/`` and
  ``perfbench/``, and every reference in a ``src/repro`` module (its
  ``__main__`` included) that lies outside a public top-level
  ``def``/``class``.  A package ``__init__``'s import statements, its
  ``__all__`` and a module-level ``__getattr__`` (a lazy export) are
  re-exports, not callers, and are skipped.
* A public top-level definition is **live** once a live reference names
  it; its own body then contributes references.  A recursive call does
  not keep a function alive, and neither does a cluster of names that
  only call each other.
* A **member** is a public method, property, ``classmethod`` or
  ``staticmethod`` of a public top-level class (dunder and ``_private``
  names are not members).  A member of a live class is live once a
  live reference names it; its body then contributes references.  A
  class's own references are its bases, its decorators and its
  non-member statements (fields, constants, private and dunder
  methods).

A reference is an identifier, an attribute name, an imported name, or
a word inside a string literal (registries load modules by string).
Docstrings and comments are not references.  References carry no
types, so a member whose name a live reference uses on anything stays
live.  A name nothing live reaches belongs in ``tests/`` (as an oracle
such as ``tests/_dense_reference.py``) or nowhere.  There is no
allowlist.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _references(*nodes):
    """The names and string-literal words the syntax trees use."""
    words, docstrings = set(), set()
    for tree in nodes:
        for node in ast.walk(tree):  # breadth first: parents come first
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant
            ):
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
    if isinstance(node, FUNCTIONS) and node.name == "__getattr__":
        return True
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_member(node: ast.stmt) -> bool:
    return isinstance(node, FUNCTIONS) and not node.name.startswith("_")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_without_callers():
    roots = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= _references(_parse(path))
    # (location, name) -> (owner key or None, references of its body);
    # a member's name is "Class.member" and its owner is its class.
    definitions = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        location = path.relative_to(SRC.parent).as_posix()
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                if not (path.name == "__init__.py" and _is_reexport(node)):
                    roots |= _references(node)
                continue
            if isinstance(node, FUNCTIONS):
                body = _references(node)
            else:
                members = [s for s in node.body if _is_member(s)]
                body = _references(
                    *node.bases,
                    *node.keywords,
                    *node.decorator_list,
                    *(s for s in node.body if not _is_member(s)),
                )
                for member in members:  # a property's setter shares a key
                    key = (location, f"{node.name}.{member.name}")
                    _, refs = definitions.get(key, (None, set()))
                    refs |= _references(member) - {member.name}
                    definitions[key] = ((location, node.name), refs)
            definitions[(location, node.name)] = (None, body - {node.name})
    live, words, grown = set(), roots, True
    while grown:
        grown = False
        for key, (owner, body) in definitions.items():
            name = key[1].rpartition(".")[2]
            if (
                key not in live
                and name in words
                and (owner is None or owner in live)
            ):
                live.add(key)
                words |= body
                grown = True
    return [
        f"{location}::{name}"
        for location, name in definitions
        if (location, name) not in live
    ]


def test_every_public_src_name_has_a_caller_outside_tests():
    orphans = _names_without_callers()
    assert not orphans, (
        "public names and members only tests reach (move the oracles "
        "into tests/, delete the rest):\n" + "\n".join(orphans)
    )
