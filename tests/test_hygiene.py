"""Source hygiene: no module-level import of a name the module never uses,
no module-level private function or class the package never references, no
public one that is neither exported nor read by the package, no exported one
that neither the package nor the README's Library example reads, and no
public method the package never reads."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpskit"
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


def _read_names(node):
    """Names read in ``node``: loaded ``ast.Name``s and imported names.
    Attribute names do not count, so ``np.dot`` is no read of a ``dot``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def _unused_definitions(trees, names_of, wanted):
    """``module:name`` of each module-level function or class of ``trees``
    (name -> parsed module) with ``wanted(name)`` true that no other
    top-level statement uses, by ``names_of(statement)``."""
    where = {}   # name -> top-level statements that use it
    for mod, tree in trees.items():
        for k, node in enumerate(tree.body):
            for name in names_of(node):
                where.setdefault(name, set()).add((mod, k))
    out = set()
    for mod, tree in trees.items():
        for k, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and wanted(node.name) \
                    and not where.get(node.name, set()) - {(mod, k)}:
                out.add(f"{mod}:{node.name}")
    return out


def _unreferenced_privates(trees):
    """Each ``_name`` definition no other statement references at all."""
    return _unused_definitions(
        trees, _referenced_names,
        lambda name: name.startswith("_") and not name.endswith("__"))


def _unread_publics(trees, exported):
    """Each public definition outside ``exported`` that no other statement
    reads by name."""
    return _unused_definitions(
        trees, _read_names,
        lambda name: not name.startswith("_") and name not in exported)


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


def test_no_unexported_unread_public_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    dead = _unread_publics(trees, _exported_names(trees["__init__.py"]))
    assert not dead, f"public definitions neither exported nor read: {sorted(dead)}"


def test_guard_flags_an_unread_public():
    a = ast.parse("import b\n"
                  "def dead(n):\n    return dead(n - 1) if n else 0\n"
                  "class Unused:\n    pass\n"
                  "def exported():\n    return local() + b.by_attribute()\n"
                  "def local():\n    return 1\n"
                  "def shared():\n    return 2\n"
                  "def _private():\n    return 3\n")
    b = ast.parse("from a import shared as alias\n"
                  "def by_attribute():\n    return alias()\n")
    assert _unread_publics({"a": a, "b": b}, {"exported"}) \
        == {"a:dead", "a:Unused", "b:by_attribute"}


# Exported names that no command and no README example reads, kept on purpose:
# perfbench/micro.py times nw_projector's apply.
UNREAD_EXPORTS = {"localization.py:nw_projector"}


def _library_example():
    """The README's Library example, parsed."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def test_exported_names_are_read():
    """Every function or class in ``qpskit.__all__`` is read by a package
    module other than ``__init__.py`` or by the README's Library example."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    exported = _exported_names(trees.pop("__init__.py"))
    trees["README.md"] = _library_example()
    unread = _unused_definitions(trees, _read_names, lambda name: name in exported)
    assert unread == UNREAD_EXPORTS, \
        f"exported but never read: {sorted(unread - UNREAD_EXPORTS)}; " \
        f"read after all: {sorted(UNREAD_EXPORTS - unread)}"


def _attribute_reads(node):
    """Counter of the attribute names read in ``node``. A method is read
    only as an attribute, so a bare name (a local that shares its name)
    does not count."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _unread_methods(trees):
    """``module:Class.method`` of each public method that no code outside
    its own body reads as an attribute."""
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    out = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("_") \
                        and reads[fn.name] == _attribute_reads(fn)[fn.name]:
                    out.add(f"{mod}:{cls.name}.{fn.name}")
    return out


def test_no_unread_public_methods():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    dead = _unread_methods(trees)
    assert not dead, f"public methods the package never reads: {sorted(dead)}"


def test_guard_flags_an_unread_method():
    a = ast.parse("class A:\n"
                  "    def used(self):\n        return self.helper()\n"
                  "    def helper(self):\n        return 1\n"
                  "    def dead(self, n):\n        return self.dead(n - 1) if n else 0\n"
                  "    @property\n    def shown(self):\n        return 2\n"
                  "    def __len__(self):\n        return 0\n"
                  "    def _private(self):\n        return 3\n"
                  "    def shadowed(self):\n        return 4\n"
                  "def f(x):\n    shadowed = x + 1\n    return shadowed\n")
    b = ast.parse("from a import A\nprint(A().used(), A().shown)\n")
    assert _unread_methods({"a": a, "b": b}) == {"a:A.dead", "a:A.shadowed"}


# The grid's memory layout and buffer pool, which only its sample batch may
# touch on an evaluator's behalf.
GRID_INTERNALS = {"moveaxis", "take_buffer", "recycle", "_to_inner", "_to_public"}


def _grid_internals(tree):
    """Underscore names that ``tree`` imports from ``.grid``, and the
    ``GRID_INTERNALS`` it names."""
    imported = {a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "grid"
                for a in n.names if a.name.startswith("_")}
    return imported | (_referenced_names(tree) & GRID_INTERNALS)


def test_numcheck_holds_no_layout_or_buffer_code():
    tree = ast.parse((SRC / "numcheck.py").read_text())
    found = _grid_internals(tree)
    assert not found, f"numcheck.py reaches into the grid: {sorted(found)}"


def test_guard_flags_grid_internals_in_an_evaluator():
    tree = ast.parse("from .grid import GridRep, _cheap_to_reapply\n"
                     "import numpy as np\n"
                     "def f(grid: GridRep, a):\n"
                     "    grid.recycle(np.moveaxis(a, 0, 1))\n")
    assert _grid_internals(tree) == {"_cheap_to_reapply", "recycle", "moveaxis"}
