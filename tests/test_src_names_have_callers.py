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

The same roots sweep **parameters**: every parameter with a default
on a public top-level function, or on a public method or ``__init__``
of a public top-level class, must be set by some caller.

* A call **sets** a parameter when it passes it by keyword, by
  position at or past its index, or through a ``*``/``**`` splat that
  could reach it.  The callee is matched by name: the function's name,
  the method's attribute name, or for ``__init__`` the class's name
  (``cls(...)`` inside the class, a subclass without an ``__init__``
  of its own, and ``super().__init__(...)`` in a subclass included).
* A call inside the function's own body does not set it (recursion),
  and neither does passing the caller's own defaulted parameter, not
  rebound in its body, while that parameter is itself unset.  The
  sweep iterates to a fixed point, so a knob threaded through several
  signatures goes as a whole.
* **Indirection**: any other reference to the function's name (for
  ``__init__``, the name ``__init__``) sets all its parameters: a
  function passed as a value, stored in a table or named in a string
  literal.  Imports and ``__all__`` are not references.

A parameter no caller sets is a knob only tests turn: its default is
the behaviour, so the parameter goes.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

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


def _caller_files(root: Path):
    for directory in CALLER_DIRS:
        yield from sorted((root / directory).rglob("*.py"))


def _names_without_callers():
    roots = set()
    for path in _caller_files(ROOT):
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


def _name(node: ast.expr):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _signature(function, method: bool):
    """Positional parameter names (``self``/``cls`` dropped) and the
    names that have defaults."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    defaulted = positional[len(positional) - len(arguments.defaults):]
    defaulted += [
        a
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    static = any(_name(d) == "staticmethod" for d in function.decorator_list)
    if method and not static:
        positional = positional[1:]
    return [a.arg for a in positional], [a.arg for a in defaulted]


class _Uses(ast.NodeVisitor):
    """The calls in a tree, with their arguments, and every other name.

    ``cls`` is the top-level class being walked, ``caller`` the scoped
    function (a key) and ``threadable`` its defaulted parameters that
    its body never rebinds.
    """

    def __init__(self):
        self.calls, self.values = [], set()
        self.cls = self.caller = None
        self.threadable = set()

    def _source(self, argument: ast.expr):
        if isinstance(argument, ast.Name) and argument.id in self.threadable:
            return argument.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func, callees = node.func, [_name(node.func)]
        if isinstance(func, ast.Name) and func.id == "cls" and self.cls:
            callees = [self.cls.name]
        elif isinstance(func, ast.Attribute):
            if func.attr == "__init__" and _name(getattr(
                func.value, "func", None
            )) == "super" and self.cls:
                callees = [_name(base) for base in self.cls.bases]
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        # a splat is the source "*": it reaches whatever it could
        positional = [
            "*" if isinstance(a, ast.Starred) else self._source(a)
            for a in node.args
        ]
        keywords = {
            k.arg or "**": self._source(k.value) for k in node.keywords
        }
        for callee in callees:
            self.calls.append((callee, self.caller, positional, keywords))
        for argument in (*node.args, *node.keywords):
            self.visit(argument)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.values.update(re.findall(r"\w+", node.value))

    def visit_Expr(self, node: ast.Expr) -> None:
        if not isinstance(node.value, ast.Constant):  # not a docstring
            self.visit(node.value)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def walk(self, node, caller=None, defaulted=()) -> None:
        rebound = {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        self.caller, self.threadable = caller, set(defaulted) - rebound
        self.visit(node)


def _passed(parameter, index, positional, keywords):
    """The source of the argument a call passes ``parameter`` from:
    ``None`` for a value, a caller's parameter name, or ``False``
    when the call does not pass it."""
    if "**" in keywords:
        return None
    if parameter in keywords:
        return keywords[parameter]
    if index is None:
        return False
    if "*" in positional[: index + 1]:
        return None
    return positional[index] if index < len(positional) else False


def _unset_parameters(root: Path = ROOT):
    src = root / "src" / "repro"
    # key -> (callee name, indirection name, positional, defaulted)
    scoped, uses = {}, _Uses()
    bases, has_init = {}, set()
    for path in [*_caller_files(root), *sorted(src.rglob("*.py"))]:
        in_src = src in path.parents
        location = path.relative_to(root).as_posix()
        for node in _parse(path).body:
            if _is_reexport(node):
                continue
            public = in_src and not getattr(node, "name", "_").startswith("_")
            uses.cls = None
            if isinstance(node, FUNCTIONS) and public:
                key = (location, node.name)
                positional, defaulted = _signature(node, method=False)
                scoped[key] = (node.name, node.name, positional, defaulted)
                uses.walk(node, key, defaulted)
                continue
            if not isinstance(node, ast.ClassDef):
                uses.walk(node)
                continue
            bases[node.name] = [_name(base) for base in node.bases]
            uses.cls = node
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                uses.walk(part)
            for statement in node.body:
                member = getattr(statement, "name", "_")
                if member == "__init__":
                    has_init.add(node.name)
                if not (
                    public
                    and isinstance(statement, FUNCTIONS)
                    and (member == "__init__" or not member.startswith("_"))
                ):
                    uses.walk(statement)
                    continue
                key = (location, f"{node.name}.{member}")
                positional, defaulted = _signature(statement, method=True)
                callee = node.name if member == "__init__" else member
                scoped[key] = (callee, member, positional, defaulted)
                uses.walk(statement, key, defaulted)

    def runs(callee, seen=frozenset()):
        """The names a call of ``callee`` reaches: itself and, for a
        class without an ``__init__`` of its own, its bases'."""
        if callee in has_init or callee not in bases or callee in seen:
            return {callee}
        seen |= {callee}
        return {callee}.union(*(runs(base, seen) for base in bases[callee]))

    by_callee = {}
    for key, (callee, *_) in scoped.items():
        by_callee.setdefault(callee, []).append(key)
    is_set = {
        (key, parameter)
        for key, (_, name, _, defaulted) in scoped.items()
        if name in uses.values
        for parameter in defaulted
    }
    grown = True
    while grown:
        grown = False
        for callee, caller, positional, keywords in uses.calls:
            for key in {k for c in runs(callee) for k in by_callee.get(c, ())}:
                _, _, names, defaulted = scoped[key]
                for parameter in defaulted:
                    index = (
                        names.index(parameter) if parameter in names else None
                    )
                    source = _passed(parameter, index, positional, keywords)
                    if (
                        key == caller
                        or (key, parameter) in is_set
                        or source is False
                        or (source and (caller, source) not in is_set)
                    ):
                        continue
                    is_set.add((key, parameter))
                    grown = True
    return [
        f"{location}::{name}({parameter})"
        for (location, name), (*_, defaulted) in scoped.items()
        for parameter in defaulted
        if ((location, name), parameter) not in is_set
    ]


def test_every_defaulted_src_parameter_has_a_caller_that_sets_it():
    unset = _unset_parameters()
    assert not unset, (
        "parameters no caller outside tests sets (make the default the "
        "behaviour and delete the parameter):\n" + "\n".join(unset)
    )


# the parameter rules, each on a synthetic tree: ``src/repro/mod.py``
# holds the definitions, ``examples/use.py`` the callers and
# ``tests/test_use.py`` calls that must not count
KNOB = """
def knob(x, level=1):
    return x + level
"""
THREADED = """
def outer(x, level=1):
    return inner(x, level=level)

def inner(x, level=1):
    return x + level
"""
BOX = """
class Box:
    def __init__(self, size=1):
        self.size = size

class Crate(Box):
    pass
"""
SMALL_BOX = BOX.replace("        self.size = size\n", """        self.size = size

    @classmethod
    def small(cls):
        return cls(size=0)
""")


@pytest.mark.parametrize(
    "src, caller, unset",
    [
        (KNOB, "knob(1)", ["knob(level)"]),
        (KNOB, "knob(1, level=2)", []),
        (KNOB, "knob(1, 2)", []),
        (KNOB, "mod.knob(*pair)", []),
        (KNOB, "knob(1, **options)", []),
        (KNOB, "knob(1)\nhandlers = {'k': knob}", []),
        (KNOB, "knob(1)\nfn = getattr(mod, 'knob')", []),
        (THREADED, "outer(1)", ["outer(level)", "inner(level)"]),
        (THREADED, "outer(1, level=3)", []),
        (
            THREADED.replace("return inner", "level += 1\n    return inner"),
            "outer(1)",
            ["outer(level)"],
        ),
        (
            "def countdown(n, step=1):\n"
            "    return countdown(n - step, step=2) if n > 0 else n\n",
            "countdown(3)",
            ["countdown(step)"],
        ),
        (BOX, "Box()", ["Box.__init__(size)"]),
        (SMALL_BOX, "Box.small()", []),
        (BOX, "Crate(size=2)", []),
        (
            BOX + "class Bin(Box):\n"
            "    def __init__(self):\n"
            "        super().__init__(3)\n",
            "Bin()",
            [],
        ),
    ],
    ids=[
        "never-set", "keyword", "positional", "star-splat",
        "double-star-splat", "stored-in-a-table", "named-in-a-string",
        "pass-through", "pass-through-set-at-the-top", "rebound-then-passed",
        "recursive-call", "constructor-never-set", "cls-call",
        "subclass-call", "super-init",
    ],
)
def test_parameter_sweep_rules(tmp_path, src, caller, unset):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(src))
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(caller + "\n")
    assert _unset_parameters(tmp_path) == [
        f"src/repro/mod.py::{entry}" for entry in unset
    ]


def test_parameter_sweep_ignores_calls_from_tests(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(KNOB)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text("knob(1)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_use.py").write_text("knob(1, level=2)\n")
    assert _unset_parameters(tmp_path) == ["src/repro/mod.py::knob(level)"]
