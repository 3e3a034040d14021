"""No `assert` and no `global` statement in the package: library code
reports a broken invariant by raising an exception or returning a failed
report, never by a check that `python -O` strips out, and it keeps no
module state that a function rebinds behind its callers' backs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tutteval"


def _statements(kind, root=SRC):
    """file:line of every statement of the ast class `kind` in the modules
    under root."""
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, kind)]
    return out


def test_no_assert_in_src():
    assert _statements(ast.Assert) == []


def test_the_guard_sees_an_assert(tmp_path):
    # a nested assert is found; a name that merely contains "assert" is not
    (tmp_path / "mod.py").write_text(
        "def assert_positive(x):\n"
        "    if x <= 0:\n        raise ValueError(x)\n\n\n"
        "class Box:\n"
        "    def check(self, n):\n"
        "        for k in range(n):\n"
        "            assert k >= 0, 'negative'\n"
        "        return assert_positive(n)\n")
    assert _statements(ast.Assert, tmp_path) == ["mod.py:9"]


def test_no_global_in_src():
    assert _statements(ast.Global) == []


def test_the_guard_sees_a_global(tmp_path):
    # a global statement in a nested function is found; a module-level
    # constant and a name that merely contains "global" are not
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\n"
        "global_count = 0\n\n\n"
        "def outer():\n"
        "    def bump():\n"
        "        global global_count\n"
        "        global_count += LIMIT\n"
        "    return bump\n")
    assert _statements(ast.Global, tmp_path) == ["mod.py:7"]
