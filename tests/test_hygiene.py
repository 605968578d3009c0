"""Source hygiene: no module-level import of a name the module never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qpskit"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree):
    """Names bound by the imports in the module body."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return _imported_names(tree) - used - _exported_names(tree)


def test_modules_found():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {sorted(unused)}"


def test_guard_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "from math import comb, gcd\n__all__ = ['gcd']\n"
                     "def f(x):\n    return comb(2, 1)\n")
    assert _unused_imports(tree) == {"os"}
