"""No `assert` statement in the package: library code reports a broken
invariant by raising an exception or returning a failed report, never by a
check that `python -O` strips out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tutteval"


def _asserts(root=SRC):
    """file:line of every assert statement in the modules under root."""
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]
    return out


def test_no_assert_in_src():
    assert _asserts() == []


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
    assert _asserts(tmp_path) == ["mod.py:9"]
