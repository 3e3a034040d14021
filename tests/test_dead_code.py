"""No dead code in the package: every module-level function and class of
src/tutteval is referenced from src/ somewhere outside its own definition,
so a function that only tests call cannot come back unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tutteval"


def _scan(root):
    """(definitions, references): (path, node) of every module-level def and
    class, and (path, line, name) of every Name and Attribute in src/."""
    defs, refs = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((path, node))
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
    # a recursive function that nothing else calls is still dead
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n")
    assert _unreferenced(tmp_path) == ["mod.py:5 dead"]
