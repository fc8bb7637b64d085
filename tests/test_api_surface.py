"""The package's surface: no definition without a caller, no default that no
call overrides, no private name imported across modules, no stale tracer
entry, no quadrature on import.

The checks read source with the standard library's ``ast``.  A name counts
as used when it appears in ``src/``, ``tests/`` or ``perfbench/`` as an
identifier, an attribute, an imported name or a string constant (the
benchmark tracer names what it patches in strings), outside the body of
the definition itself.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hsprg"
TRACER = ROOT / "perfbench" / "tracer.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(tree: ast.AST) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used[node.value] += 1
    return used


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def unused_definitions() -> list[str]:
    used = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used += names_used(parse(path))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, DEFS) or node.name.startswith("__"):
                continue
            own = names_used(node)[node.name]  # recursion is not a caller
            if used[node.name] - own <= 0:
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_definition_has_a_caller():
    assert unused_definitions() == []


def defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """``(callee, where, parameter, position or None)`` of each defaulted parameter.

    Positions skip a method's ``self`` or ``cls`` (the package has no static
    methods); an ``__init__`` is called by its class's name.
    """
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args, owner = node.args, owners.get(id(node))
            positional = args.posonlyargs + args.args
            named = [(a, i - (owner is not None)) for i, a in enumerate(positional)
                     ][len(positional) - len(args.defaults):]
            named += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            callee = owner if node.name == "__init__" else node.name
            out += [(callee, f"{path.name}:{node.lineno} {node.name}", a.arg, i) for a, i in named]
    return out


def spread_keys(node: ast.AST, known: dict) -> set | None:
    """The keys a ``**node`` passes, or None when they are not known."""
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys} \
            if all(isinstance(k, ast.Constant) for k in node.keys) else None
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        keys = {kw.arg for kw in node.keywords}
        for arg in node.args:
            base = spread_keys(arg, known)
            keys |= {None} if base is None else base
        return None if None in keys else keys
    return known.get(getattr(node, "id", None) or getattr(node, "attr", None))


def passed_parameters() -> set[tuple]:
    """``(callee, parameter name or position)`` for each parameter some call
    passes, and ``(callee, None)`` when a call may pass every parameter.

    A call is matched by its callee's name alone, and ``cls(...)`` calls the
    enclosing class.  A ``*`` argument or a ``**`` of unknown keys passes
    every parameter; the keys of ``NAME = dict(...)`` or ``{...}`` are known.
    """
    passed = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree, known = parse(path), {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                        and isinstance(node.value, (ast.Dict, ast.Call)):
                    name, keys = node.targets[0].id, spread_keys(node.value, known)
                    old = known.get(name, set())  # a name bound twice passes both key sets
                    known[name] = None if old is None or keys is None else old | keys
            owner = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                     for n in ast.walk(c)}
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                name = owner.get(id(call)) if name == "cls" else name
                keys = set()
                for kw in call.keywords:
                    spread = {kw.arg} if kw.arg else spread_keys(kw.value, known)
                    keys = None if keys is None or spread is None else keys | spread
                if keys is None or any(isinstance(a, ast.Starred) for a in call.args):
                    passed.add((name, None))
                passed |= {(name, k) for k in keys or ()}
                passed |= {(name, i) for i in range(len(call.args))}
    return passed


def test_every_defaulted_parameter_is_passed():
    """A default that no call in the repository overrides is a constant, not a parameter."""
    passed = passed_parameters()
    unpassed = [f"{where}({param})" for callee, where, param, pos in defaulted_parameters()
                if not {(callee, None), (callee, param), (callee, pos)} & passed]
    assert unpassed == []


def private_imports() -> list[str]:
    """``from <package module> import _name`` inside the package (dunders allowed)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) \
                    and (node.level or (node.module or "").partition(".")[0] == "hsprg"):
                out += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    return out


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def tracer_targets() -> list[tuple[str, str, str]]:
    specs = {}
    for node in parse(TRACER).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTS"):
            specs[node.targets[0].id] = ast.literal_eval(node.value)
    assert specs.keys() == {"SPANS", "COUNTS"}
    return specs["SPANS"] + specs["COUNTS"]


@pytest.mark.parametrize("name,owner,attr", tracer_targets())
def test_tracer_entry_resolves(name, owner, attr):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    if cls:
        target = getattr(target, cls)
    assert hasattr(target, attr), f"{name}: {owner}.{attr} is gone"


def test_import_leaves_scipy_integrate_unloaded():
    # only continuous laws integrate; importing the package must not pay for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, hsprg; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
