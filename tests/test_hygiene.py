"""Source hygiene: no module-level import of a name the module never uses,
and no module-level private function or class the package never references."""

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


def _referenced_names(node):
    """Names, attribute names and imported names used anywhere in ``node``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def _unreferenced_privates(trees):
    """``module:name`` of each module-level ``_name`` function or class that
    no module of ``trees`` (name -> parsed module) references outside the
    definition itself."""
    where = {}   # name -> top-level statements that reference it
    for mod, tree in trees.items():
        for k, node in enumerate(tree.body):
            for name in _referenced_names(node):
                where.setdefault(name, set()).add((mod, k))
    out = set()
    for mod, tree in trees.items():
        for k, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__") \
                    and not where.get(node.name, set()) - {(mod, k)}:
                out.add(f"{mod}:{node.name}")
    return out


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


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    dead = _unreferenced_privates(trees)
    assert not dead, f"private definitions never referenced: {sorted(dead)}"


def test_guard_flags_an_unreferenced_private():
    a = ast.parse("from .b import _shared\n"
                  "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
                  "class _Unused:\n    pass\n"
                  "def _local():\n    return 1\n"
                  "def public():\n    return _local() + _shared()\n"
                  "def __getattr__(name):\n    raise AttributeError(name)\n")
    b = ast.parse("import a\ndef _shared():\n    return a._by_attribute()\n"
                  "def _by_attribute():\n    return 0\n")
    assert _unreferenced_privates({"a": a, "b": b}) == {"a:_dead", "a:_Unused"}
