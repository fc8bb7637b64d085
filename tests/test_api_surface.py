"""The package's surface: no definition without a caller, no private name
imported across modules, no stale tracer entry, no quadrature on import.

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
