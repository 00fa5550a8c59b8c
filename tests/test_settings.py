"""Every optional parameter of the package is passed by some caller.

A parameter with a default that no call ever passes is a setting nobody
sets: it widens the interface, and every reader has to ask what it would
change.  This test parses ``src/smolab`` and looks for a call that passes
each defaulted parameter, by keyword or by position, anywhere in ``src/``,
``tests/`` or ``perfbench/``.  The defaulted fields of a dataclass are
parameters of its ``__init__`` and are checked too, but for those declared
``field(init=False)``.  Their positions count the class's own fields, as no
dataclass of the package has a dataclass base.

Calls are matched by the callee's name only (``f(...)`` or ``x.f(...)``),
and ``__init__`` by its class's name, so a call to another function of the
same name also counts: the test can miss a dead parameter, but it names no
live one.  A call with ``*args`` passes every position from its star on,
and one with ``**kwargs`` every keyword.

In the same way every function, method and class of the package is named
somewhere in those directories: as a ``Name``, an ``Attribute``, an import
alias, or a string constant that is an identifier, since patches name their
target by string.  Dunder names, which Python calls itself, are left out.
A name shared with anything else counts as used, so here too the test can
miss a dead definition but names no live one.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smolab"
CALLER_DIRS = ("src", "tests", "perfbench")


def _trees(paths):
    for path in sorted(paths):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def optional_parameters():
    """(qualified name, callee name, parameter, position or None) for every
    defaulted parameter of a function in the package.  The position counts
    the arguments a call passes, so it skips ``self`` or ``cls`` of a
    method; a keyword-only parameter has none."""
    out = []
    for path, tree in _trees(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if _is_dataclass(child):
                        out.extend((f"{module}.{child.name}", child.name, name, position)
                                   for name, position in _defaulted_fields(child))
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    method = owner is not None and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list)
                    shift = 1 if method and positional else 0
                    callee = owner if child.name == "__init__" else child.name
                    qualified = f"{module}.{owner + '.' if owner else ''}{child.name}"
                    first = len(positional) - len(args.defaults)
                    for i in range(first, len(positional)):
                        out.append((qualified, callee, positional[i].arg, i - shift))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            out.append((qualified, callee, arg.arg, None))
                    visit(child, None)

        visit(tree, None)
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _defaulted_fields(cls: ast.ClassDef):
    """(name, position) of each defaulted ``__init__`` field of a dataclass:
    one with a plain default, or a ``field()`` with ``default`` or
    ``default_factory``.  A ``field(init=False)`` is not a parameter."""
    position = 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        value, defaulted = stmt.value, stmt.value is not None
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"):
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        if defaulted:
            yield stmt.target.id, position
        position += 1


def calls_by_name():
    """The calls in the caller directories, grouped by the callee's name."""
    calls = defaultdict(list)
    paths = [p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")]
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is not None:
                    calls[name].append(node)
    return calls


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_optional_parameter_has_a_caller():
    calls = calls_by_name()
    unset = [f"{qualified}({name})"
             for qualified, callee, name, position in optional_parameters()
             if not any(passes(c, name, position) for c in calls[callee])]
    assert unset == [], "optional parameters that no call passes: " + ", ".join(unset)


def definitions():
    """(qualified name, name) of every function, method and class of the package."""
    out = []
    for path, tree in _trees(PACKAGE.glob("*.py")):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                out.append((f"{path.stem}.{node.name}", node.name))
    return out


def names_in_use():
    """Every name the caller directories mention, by the rule of the module docstring."""
    names = set()
    paths = [p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")]
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def test_every_definition_is_named_somewhere():
    used = names_in_use()
    dead = [qualified for qualified, name in definitions() if name not in used]
    assert dead == [], "definitions that no code names: " + ", ".join(dead)
