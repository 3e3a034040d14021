"""Rational scalar layer: exactness, gcd, rank and combinatorics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tutteval.exactnum import ONE, Rat, ZERO, double_factorial, rank, rat_gcd

rationals = st.builds(Rat,
                      st.integers(min_value=-10**6, max_value=10**6),
                      st.integers(min_value=1, max_value=10**4))


def test_rat_basics():
    assert Rat(1, 2) + Rat(1, 3) == Rat(5, 6)
    assert Rat(2, 4) == Rat(1, 2)
    assert Rat(-1, 2) * Rat(2) == Rat(-1)
    assert Rat(7, -14) == Rat(-1, 2)


def test_rat_gcd_values():
    assert rat_gcd(Rat(4), Rat(6)) == Rat(2)
    assert rat_gcd(Rat(1, 2), Rat(1, 3)) == Rat(1, 6)
    assert rat_gcd(Rat(3, 4), Rat(9, 2)) == Rat(3, 4)
    # a unit content can still shrink against a fractional coefficient
    assert rat_gcd(ONE, Rat(3, 2)) == Rat(1, 2)
    assert rat_gcd(ZERO, Rat(-7, 3)) == Rat(7, 3)


@given(rationals, rationals)
def test_rat_gcd_divides_both(a, b):
    g = rat_gcd(a, b)
    if g:
        assert (a / g).denominator == 1
        assert (b / g).denominator == 1
    else:
        assert a == ZERO and b == ZERO


@given(rationals, rationals)
def test_rat_gcd_content_is_maximal(a, b):
    # dividing by the gcd leaves coprime integers
    g = rat_gcd(a, b)
    if g:
        assert math.gcd(int(a / g), int(b / g)) == 1


def test_double_factorial():
    assert double_factorial(-1) == 0
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(8) == 384


@given(st.integers(min_value=2, max_value=40))
def test_double_factorial_recurrence(i):
    # from i = 2 up only: the (-1)!! = 0 convention used by the template
    # sums deliberately breaks the recurrence at i = 1
    assert double_factorial(i) == i * double_factorial(i - 2)


small_rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw):
    """Rows of rationals or ints, some of them zero rows and some rational
    combinations of the rows before them, in a shuffled order."""
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(small_rationals, st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=5))
    for coeffs in draw(st.lists(st.lists(small_rationals, min_size=len(rows),
                                         max_size=len(rows)), max_size=3)):
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO)
                     for j in range(ncols)])
    rows += [[ZERO] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix(rows).rank() if rows and rows[0] else 0
    assert rank(rows) == expected


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, ZERO, 0]]) == 0
    assert rank([[Rat(1, 2), 1], [1, 2]]) == 1
    assert rank([[Rat(1, 3), Rat(1, 6)], [Rat(2, 5), 0]]) == 2
    # a combination of earlier rows, behind a zero row
    assert rank([[1, 0, 2], [0, 3, 1], [0, 0, 0],
                 [Rat(1, 2), Rat(3, 2), Rat(3, 2)]]) == 2
