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

A reference to a top-level name is an identifier, an attribute name,
an imported name, or a word inside a string literal (registries load
modules by string).  Docstrings and comments are not references.
References carry no types, so three rules keep look-alikes out:

1. **Members.** A member is referenced only by an attribute
   (``x.name``, inside an f-string too) or by a string literal equal
   to its name (``getattr`` dispatch, command tables).  A local,
   parameter or keyword of the same spelling is not a reference, nor
   is a word inside a longer string.
2. **Outside modules.** A name that an import of a module outside
   ``repro`` binds (``np``, ``subprocess``, a test oracle that a
   benchmark imports), and an attribute or call reached through one
   (``subprocess.run(...)``), reference nothing and set nothing.
3. **Catch-alls.** A ``**`` catch-all of a public function or method
   is swept like a defaulted parameter (below).

A name nothing live reaches belongs in ``tests/`` (as an oracle such
as ``tests/_dense_reference.py``) or nowhere.  There is no allowlist.

The same roots sweep **parameters**: every parameter with a default,
and every ``**`` catch-all, on a public top-level function, or on a
public method or ``__init__`` of a public top-level class, must be set
by some caller.

* A call **sets** a parameter when it passes it by keyword, by
  position at or past its index, or through a ``*``/``**`` splat that
  could reach it.  It sets a catch-all only by passing a keyword the
  explicit signature lacks, or through a ``**`` splat.  The callee is
  matched by name: the function's name, the method's attribute name,
  or for ``__init__`` the class's name (``cls(...)`` inside the class,
  a subclass without an ``__init__`` of its own, and
  ``super().__init__(...)`` in a subclass included).
* A call inside the function's own body does not set it (recursion),
  and neither does passing the caller's own defaulted parameter or
  catch-all, not rebound in its body, while that parameter is itself
  unset.  The sweep iterates to a fixed point, so a knob threaded
  through several signatures goes as a whole.
* **Indirection**: any other reference to the function's name (for
  ``__init__``, the name ``__init__``; for a method, as rule 1 counts
  references) sets all its defaulted parameters: a function passed as
  a value, stored in a table or named in a string literal.  Imports
  and ``__all__`` are not references.  Indirection does not set a
  catch-all: only a call can pass it a keyword.

A parameter no caller sets is a knob only tests turn: its default is
the behaviour, so the parameter goes.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _outside_names(tree: ast.Module):
    """The names the module's imports of modules outside ``repro`` bind
    (``np``, ``subprocess``, a test oracle a benchmark imports)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                (a.asname or a.name).split(".")[0]
                for a in node.names
                if a.name.split(".")[0] != "repro"
            )
        elif isinstance(node, ast.ImportFrom) and not _imports_repro(node):
            names.update(a.asname or a.name for a in node.names)
    return names


def _imports_repro(node: ast.ImportFrom) -> bool:
    return node.level > 0 or node.module.split(".")[0] == "repro"


def _root(node: ast.expr) -> ast.expr:
    """The start of an attribute, call and subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node


def _is_outside(node: ast.expr, outside) -> bool:
    root = _root(node)
    return isinstance(root, ast.Name) and root.id in outside


def _references(*nodes, outside=frozenset()):
    """What the syntax trees use: ``(names, members)``.

    ``names`` are identifiers, attribute names, imported names and the
    words inside string literals (registries load modules by string).
    ``members`` are the attribute names and the whole string literals
    (``getattr`` dispatch, command tables).  Neither holds a name the
    ``outside`` imports bind, nor an attribute reached through one.
    """
    names, members, docstrings = set(), set(), set()
    for tree in nodes:
        for node in ast.walk(tree):  # breadth first: parents come first
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant
            ):
                docstrings.add(id(node.value))
            elif isinstance(node, ast.Name):
                if node.id not in outside:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not _is_outside(node, outside):
                    members.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and _imports_repro(node):
                names.update(a.name for a in node.names)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                members.add(node.value)
                names.update(re.findall(r"\w+", node.value))
    return names | members, members


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


def _names_without_callers(root: Path = ROOT):
    src = root / "src" / "repro"
    names, members = set(), set()  # what the live code uses
    for path in _caller_files(root):
        tree = _parse(path)
        found = _references(tree, outside=_outside_names(tree))
        names |= found[0]
        members |= found[1]
    # (location, name) -> (owner key or None, names and members its
    # body references); a member's name is "Class.member" and its owner
    # is its class.
    definitions = {}
    for path in sorted(src.rglob("*.py")):
        tree = _parse(path)
        outside = _outside_names(tree)
        location = path.relative_to(src.parent).as_posix()
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                if not (path.name == "__init__.py" and _is_reexport(node)):
                    found = _references(node, outside=outside)
                    names |= found[0]
                    members |= found[1]
                continue
            if isinstance(node, FUNCTIONS):
                body = _references(node, outside=outside)
            else:
                body = _references(
                    *node.bases,
                    *node.keywords,
                    *node.decorator_list,
                    *(s for s in node.body if not _is_member(s)),
                    outside=outside,
                )
                for member in filter(_is_member, node.body):
                    # a property's setter shares a key
                    key = (location, f"{node.name}.{member.name}")
                    _, called, attributes = definitions.get(
                        key, (None, set(), set())
                    )
                    found = _references(member, outside=outside)
                    definitions[key] = (
                        (location, node.name),
                        called | found[0] - {member.name},
                        attributes | found[1] - {member.name},
                    )
            definitions[(location, node.name)] = (
                None, body[0] - {node.name}, body[1] - {node.name}
            )
    live, grown = set(), True
    while grown:
        grown = False
        for key, (owner, called, attributes) in definitions.items():
            if key in live:
                continue
            if owner is None:
                reached = key[1] in names
            else:
                reached = owner in live and key[1].partition(".")[2] in members
            if reached:
                live.add(key)
                names |= called
                members |= attributes
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
    """Positional parameter names (``self``/``cls`` dropped), the names
    a keyword can pass, and the swept parameters: those with defaults
    and a ``**`` catch-all (as ``"**name"``)."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    defaulted = positional[len(positional) - len(arguments.defaults):]
    defaulted += [
        a
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    swept = [a.arg for a in defaulted]
    if arguments.kwarg:
        swept.append(f"**{arguments.kwarg.arg}")
    static = any(_name(d) == "staticmethod" for d in function.decorator_list)
    if method and not static:
        positional = positional[1:]
    named = {a.arg for a in (*arguments.args, *arguments.kwonlyargs)}
    return [a.arg for a in positional], named, swept


class _Uses(ast.NodeVisitor):
    """The calls in a tree, with their arguments, and every other name.

    ``values`` are the references that reach a top-level function other
    than by a call: identifiers, attribute names and the words in
    string literals; ``members`` those that reach a method: attribute
    names and whole string literals.  ``outside`` are the names the file's imports of
    modules outside ``repro`` bind: a call or an attribute reached
    through one is not recorded.  ``cls`` is the top-level class being
    walked, ``caller`` the scoped function (a key) and ``threadable``
    maps the local names of its swept parameters that its body never
    rebinds to those parameters.
    """

    def __init__(self):
        self.calls, self.values, self.members = [], set(), set()
        self.cls = self.caller = None
        self.threadable, self.outside = {}, set()

    def _source(self, argument: ast.expr):
        if isinstance(argument, ast.Name):
            return self.threadable.get(argument.id)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func, callees = node.func, [_name(node.func)]
        if _is_outside(func, self.outside):
            self.generic_visit(node)
            return
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
        keywords = [
            (k.arg or "**", self._source(k.value)) for k in node.keywords
        ]
        for callee in callees:
            self.calls.append((callee, self.caller, positional, keywords))
        for argument in (*node.args, *node.keywords):
            self.visit(argument)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.outside:
            self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and not _is_outside(
            node, self.outside
        ):
            self.values.add(node.attr)
            self.members.add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.values.update(re.findall(r"\w+", node.value))
            self.members.add(node.value)

    def visit_Expr(self, node: ast.Expr) -> None:
        if not isinstance(node.value, ast.Constant):  # not a docstring
            self.visit(node.value)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def walk(self, node, caller=None, swept=()) -> None:
        rebound = {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        self.caller = caller
        self.threadable = {
            p.lstrip("*"): p for p in swept if p.lstrip("*") not in rebound
        }
        self.visit(node)


def _sources(parameter, index, named, positional, keywords):
    """The sources of the arguments a call could pass ``parameter``:
    ``None`` for a value, else a swept parameter of the caller.  A
    catch-all takes the keywords the explicit signature lacks."""
    if parameter.startswith("**"):
        return [source for k, source in keywords if k not in named]
    found = [source for k, source in keywords if k in (parameter, "**")]
    if index is not None and "*" in positional[: index + 1]:
        found.append(None)
    elif index is not None and index < len(positional):
        found.append(positional[index])
    return found


def _unset_parameters(root: Path = ROOT):
    src = root / "src" / "repro"
    # key -> (callee name, indirection name, is a method, positional,
    # keyword names, swept)
    scoped, uses = {}, _Uses()
    bases, has_init = {}, set()
    for path in [*_caller_files(root), *sorted(src.rglob("*.py"))]:
        in_src = src in path.parents
        location = path.relative_to(root).as_posix()
        tree = _parse(path)
        uses.outside = _outside_names(tree)
        for node in tree.body:
            if _is_reexport(node):
                continue
            public = in_src and not getattr(node, "name", "_").startswith("_")
            uses.cls = None
            if isinstance(node, FUNCTIONS) and public:
                key = (location, node.name)
                positional, named, swept = _signature(node, method=False)
                scoped[key] = (
                    node.name, node.name, False, positional, named, swept
                )
                uses.walk(node, key, swept)
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
                positional, named, swept = _signature(statement, method=True)
                callee = node.name if member == "__init__" else member
                scoped[key] = (callee, member, True, positional, named, swept)
                uses.walk(statement, key, swept)

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
    # indirection reaches every parameter but a catch-all
    is_set = {
        (key, parameter)
        for key, (_, name, method, *_, swept) in scoped.items()
        if name in (uses.members if method else uses.values)
        for parameter in swept
        if not parameter.startswith("**")
    }
    grown = True
    while grown:
        grown = False
        for callee, caller, positional, keywords in uses.calls:
            for key in {k for c in runs(callee) for k in by_callee.get(c, ())}:
                *_, names, named, swept = scoped[key]
                for parameter in swept:
                    if key == caller or (key, parameter) in is_set:
                        continue
                    index = (
                        names.index(parameter) if parameter in names else None
                    )
                    if any(
                        source is None or (caller, source) in is_set
                        for source in _sources(
                            parameter, index, named, positional, keywords
                        )
                    ):
                        is_set.add((key, parameter))
                        grown = True
    return [
        f"{location}::{name}({parameter})"
        for (location, name), (*_, swept) in scoped.items()
        for parameter in swept
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


DIAL = """
class Dial:
    def turn(self, step=1):
        return step
"""
LAUNCH = """
def launch(x, level=1, **opts):
    return x + level, opts

def relay(x, **opts):
    return launch(x, **opts)
"""


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
        (DIAL, "Dial().turn()\nturn = 2\nprint(turn)", ["Dial.turn(step)"]),
        (DIAL, "Dial().turn()\nprint('turn it')", ["Dial.turn(step)"]),
        (
            "def run(job, check=False):\n    return job\n",
            "import subprocess\nrun(1)\nsubprocess.run(['ls'], check=True)",
            ["run(check)"],
        ),
        (KNOB, "import oracle\nknob(1)\noracle.knob(1, level=2)",
         ["knob(level)"]),
        (KNOB, "from oracle import knob\nknob(1, level=2)", ["knob(level)"]),
        (LAUNCH, "launch(1)", [
            "launch(level)", "launch(**opts)", "relay(**opts)",
        ]),
        (LAUNCH, "launch(1, speed=2)", ["launch(level)", "relay(**opts)"]),
        (LAUNCH, "launch(1, level=2)", ["launch(**opts)", "relay(**opts)"]),
        (LAUNCH, "launch(1, **extra)", ["relay(**opts)"]),
        (LAUNCH, "relay(1)", [
            "launch(level)", "launch(**opts)", "relay(**opts)",
        ]),
        (LAUNCH, "relay(1, speed=2)", []),
        (LAUNCH, "launch(1)\nhandlers = {'l': launch}", [
            "launch(**opts)", "relay(**opts)",
        ]),
    ],
    ids=[
        "never-set", "keyword", "positional", "star-splat",
        "double-star-splat", "stored-in-a-table", "named-in-a-string",
        "pass-through", "pass-through-set-at-the-top", "rebound-then-passed",
        "recursive-call", "constructor-never-set", "cls-call",
        "subclass-call", "super-init",
        "member-look-alike-local", "member-word-in-a-longer-string",
        "call-through-subprocess", "call-through-an-oracle-module",
        "name-an-oracle-import-binds",
        "catch-all-never-set", "catch-all-set-by-an-extra-keyword",
        "catch-all-not-set-by-a-named-keyword", "catch-all-set-by-a-splat",
        "catch-all-passed-through-unset", "catch-all-passed-through-set",
        "catch-all-not-set-by-indirection",
    ],
)
def test_parameter_sweep_rules(tmp_path, src, caller, unset):
    _write_tree(tmp_path, src, caller)
    assert _unset_parameters(tmp_path) == [
        f"src/repro/mod.py::{entry}" for entry in unset
    ]


def _write_tree(root: Path, src: str, caller: str) -> None:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(src))
    (root / "examples").mkdir()
    (root / "examples" / "use.py").write_text(caller + "\n")


# the member rules on the same trees: ``Dial`` is live, ``turn`` only
# through what the caller adds after ``dial = Dial()``
@pytest.mark.parametrize(
    "caller, orphans",
    [
        ("dial.turn()", []),
        ("getattr(dial, 'turn')()", []),
        ("print(f'{dial.turn()}')", []),
        ("turn = 2\nprint(turn)", ["Dial.turn"]),
        ("def spin(turn):\n    return turn\nspin(dial)", ["Dial.turn"]),
        ("print('turn it')", ["Dial.turn"]),
        ("import subprocess\nsubprocess.turn(dial)", ["Dial.turn"]),
        ("import oracle as dials\ndials.turn(dial)", ["Dial.turn"]),
        ("from oracle import turn\nturn(dial)", ["Dial.turn"]),
    ],
    ids=[
        "attribute", "exact-string", "f-string", "look-alike-local",
        "look-alike-parameter", "word-in-a-longer-string",
        "through-subprocess", "through-an-oracle-module",
        "name-an-oracle-import-binds",
    ],
)
def test_member_sweep_rules(tmp_path, caller, orphans):
    _write_tree(tmp_path, DIAL, "dial = Dial()\n" + caller)
    assert _names_without_callers(tmp_path) == [
        f"repro/mod.py::{entry}" for entry in orphans
    ]


def test_parameter_sweep_ignores_calls_from_tests(tmp_path):
    _write_tree(tmp_path, KNOB, "knob(1)")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_use.py").write_text("knob(1, level=2)\n")
    assert _unset_parameters(tmp_path) == ["src/repro/mod.py::knob(level)"]
