"""No module of ``src/repro`` imports a name it never uses.

A module-level scan over every non-``__init__`` module: each name an
``import`` binds must be read somewhere in the module.  A read is a
``Name`` node (which covers ``module.attr`` through its base), a name
inside a string annotation, or an entry of the module's ``__all__``.
``from __future__`` imports bind nothing and are exempt.  Package
``__init__`` modules are re-export tables and are not scanned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotations(tree):
    """Every annotation expression in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree):
    """Names read inside string (forward-reference) annotations."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return names


def _exported(tree):
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(source):
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _string_annotation_names(tree) | _exported(tree)
    return [(line, name) for line, name in bound if name not in read]


def test_scan_sees_reads_and_flags_the_rest():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import List, Optional\n"
        "from x import A, B, C\n"
        "__all__ = ['C']\n"
        "def f(a: 'Optional[A]') -> int:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == [(3, "os"), (4, "List"), (5, "B")]


def test_no_module_imports_an_unused_name():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)
