"""No `assert` and no `global` statement in the package: library code
reports a broken invariant by raising an exception or returning a failed
report, never by a check that `python -O` strips out, and it keeps no
module state that a function rebinds behind its callers' backs.  No
function cache either, beyond the three argued below: a suite builds what
its reports share and passes it to them."""

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


# the decorators of functools that keep results between calls
_CACHES = {"lru_cache", "cache", "cached_property"}


def _cached(root=SRC):
    """file:name of every function under root, at any depth, that a
    functools cache decorates, with or without a call and a module
    prefix."""
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else dec.id
                if name in _CACHES:
                    out.append(f"{path.name}:{node.name}")
    return sorted(out)


def test_only_the_argued_caches_are_in_src():
    # the benchmark's tracer counts the tower builds by q_tower's
    # cache_info(); p0_quot and w_quot take no argument, so each holds one
    # constant and never evicts
    assert _cached() == ["holonomic.py:p0_quot", "holonomic.py:q_tower",
                         "holonomic.py:w_quot"]


def test_the_guard_sees_a_cache(tmp_path):
    # called or bare, with or without the module prefix, and nested; a
    # decorator of another name is not a cache
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n\n\n"
        "@lru_cache(maxsize=2)\n"
        "def a(n):\n    return n\n\n\n"
        "@functools.lru_cache\n"
        "def b(n):\n    return n\n\n\n"
        "class Box:\n"
        "    @staticmethod\n"
        "    def c(n):\n"
        "        @cache\n"
        "        def d(k):\n            return k\n"
        "        return d(n)\n")
    assert _cached(tmp_path) == ["mod.py:a", "mod.py:b", "mod.py:d"]


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
