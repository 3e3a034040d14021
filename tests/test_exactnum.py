"""Rational scalar layer: exactness, canonical rendering, combinatorics."""

from hypothesis import given, strategies as st

from tutteval.exactnum import (ONE, Rat, ZERO, binomial, double_factorial,
                               factorial, rat_gcd, rat_str)

rationals = st.builds(Rat,
                      st.integers(min_value=-10**6, max_value=10**6),
                      st.integers(min_value=1, max_value=10**4))


def test_rat_basics():
    assert Rat(1, 2) + Rat(1, 3) == Rat(5, 6)
    assert Rat(2, 4) == Rat(1, 2)
    assert Rat(-1, 2) * Rat(2) == Rat(-1)
    assert Rat(7, -14) == Rat(-1, 2)


def test_rat_str():
    assert rat_str(Rat(3)) == "3"
    assert rat_str(Rat(-5, 2)) == "-5/2"
    assert rat_str(ZERO) == "0"


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
        import math
        assert math.gcd(int(a / g), int(b / g)) == 1


def test_binomial():
    assert binomial(4, 2) == Rat(6)
    assert binomial(0, 0) == ONE
    assert binomial(3, 5) == ZERO
    assert binomial(3, -1) == ZERO
    assert binomial(-2, 0) == ZERO
    assert binomial(40, 9) == Rat(factorial(40),
                                  factorial(9) * factorial(31))


@given(st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=60))
def test_pascal(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


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
