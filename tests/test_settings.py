"""Every optional parameter of the package is passed by some caller.

A parameter with a default that no call ever passes is a setting nobody
sets: it widens the interface, and every reader has to ask what it would
change.  This test parses ``src/smolab`` and looks for a call that passes
each defaulted parameter, by keyword or by position, anywhere in ``src/``,
``tests/`` or ``perfbench/``.

Calls are matched by the callee's name only (``f(...)`` or ``x.f(...)``),
and ``__init__`` by its class's name, so a call to another function of the
same name also counts: the test can miss a dead parameter, but it names no
live one.  A call with ``*args`` passes every position from its star on,
and one with ``**kwargs`` every keyword.
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
