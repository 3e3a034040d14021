"""No dead code in the package: every module-level function and class of
src/tutteval, and every method of those classes other than the dunder
methods, is referenced from src/ somewhere outside its own definition, so
a function that only tests call cannot come back unnoticed.

A reference is matched by name only: a method counts as used when any
attribute of that name is read in src/.  So the guard is blind to a method
that shares its name with a method in use elsewhere: a test-only
`Series3.var` passed on the calls of `Series2.var`, and `Poly.zero` and
`Poly.coeff` on those of the truncated series' `zero` and `coeff`.  Such
a method is found only by reading its callers.

No unused imports either: every name that a module of src/tutteval imports
at module level is read in that module (`from __future__` imports are
exempt), so an import that outlives the code that read it goes too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tutteval"


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _is_dunder(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def _scan(root):
    """(definitions, references): (path, node) of every module-level def and
    class and of every non-dunder method of those classes, and (path, line,
    name) of every Name and Attribute in src/."""
    defs, refs = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not _is_def(node):
                continue
            defs.append((path, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path, meth) for meth in node.body
                         if _is_def(meth) and not _is_dunder(meth)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    return defs, refs


def _unreferenced(root=SRC):
    defs, refs = _scan(root)
    out = []
    for path, node in defs:
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and not (p == path and line in inside)
                   for p, line, name in refs):
            out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_module_level_definition_is_used_in_src():
    assert _unreferenced() == []


def test_the_guard_sees_an_unused_definition(tmp_path):
    # a recursive function that nothing else calls is still dead, and so is
    # a method that only calls itself; dunder methods are exempt
    (tmp_path / "mod.py").write_text(
        "def used():\n    return Box()\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n\n\n"
        "class Box:\n"
        "    def __str__(self):\n        return self.live()\n\n"
        "    def live(self):\n        return Box()\n\n"
        "    def idle(self, n):\n        return self.idle(n - 1)\n")
    assert _unreferenced(tmp_path) == ["mod.py:5 dead", "mod.py:16 idle"]


def _unused_imports(root=SRC):
    """`file:line name` of every name bound by a module-level import of a
    module under root and never read (an ast.Name in Load context) in that
    module; `import a.b` binds a."""
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_module_level_import_is_read_in_its_module():
    assert _unused_imports() == []


def test_the_guard_sees_an_unused_import(tmp_path):
    # a name read only inside a string, or only assigned, is unused; a
    # dotted import counts as read through its first name, and an import
    # inside a function is not at module level
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import time\n"
        "from math import inf as INF, pi\n"
        "from .polyring import (Poly,\n"
        "                       primitive_rat)\n\n"
        "pi = 3\n\n\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return os.path.join('time', str(INF)), Poly\n")
    assert _unused_imports(tmp_path) == [
        "mod.py:4 time", "mod.py:5 pi", "mod.py:6 primitive_rat"]
