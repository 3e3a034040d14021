"""Truncated power series: inversion, square root, log/exp, and the
Laurent layer with its formal log 2."""

import pytest
from hypothesis import given, settings, strategies as st

from tutteval.exactnum import ONE, Rat, ZERO
from tutteval.series import LaurentX, Series2, Series3, assert_degree_le
from tutteval.template import relation_series

from test_template import _relation_series_3var


def s2(S=8, L=6):
    return (Series2.var("s", S, L), Series2.var("l", S, L))


def _exp(A, nmax):
    """exp of a Series2 or Series3 with zero constant term, the oracle for
    log: Horner on sum_n A^n/n!, with nmax at least the number of factors
    that still fit under the caps."""
    acc = A.scale(0) + 1
    for n in range(nmax, 0, -1):
        acc = (acc * A).scale(Rat(1, n)) + 1
    return acc


def test_series2_geometric():
    s, lam = s2()
    inv = (1 - s).inverse()
    for b in range(9):
        assert inv.coeff(b, 0) == ONE


def test_series2_inverse_roundtrip():
    s, lam = s2()
    A = 1 + s + 3 * lam * s + lam * lam
    assert A * A.inverse() == Series2.const(1, 8, 6)


def test_series2_sqrt():
    s, lam = s2()
    A = 1 + s * lam
    r = A.sqrt()
    assert r * r == A
    with pytest.raises(ValueError):
        (s + 2).sqrt()


def test_series2_sqrt_binomial_coeffs():
    # sqrt(1 - 4s) has coefficients -2/(b) * C(2b-2, b-1) ... check against
    # the central binomial closed form: [s^b] sqrt(1-4s) = -2 C(2b-2,b-1)/b
    s, _ = s2(10, 0)
    r = (1 - s.scale(4)).sqrt()
    import math
    for b in range(1, 10):
        expected = Rat(-2 * math.comb(2 * b - 2, b - 1), b)
        assert r.coeff(b, 0) == expected


def test_series2_log_exp_inverse_pair():
    s, lam = s2()
    A = 1 + s + lam + s * lam
    lg, l2 = A.log()
    assert l2 == ZERO
    assert _exp(lg, 8 + 6) == A


def test_series2_log_of_two():
    s, _ = s2()
    lg, l2 = (2 + s).log()
    assert l2 == ONE  # log(2(1 + s/2)) = log2 + log(1 + s/2)
    assert lg.coeff(1, 0) == Rat(1, 2)
    with pytest.raises(ValueError):
        (3 + s).log()


def test_series2_truncation_consistency():
    s, lam = s2(10, 6)
    big = ((1 + s + lam) ** 5) * (1 - s).inverse()
    small = big.truncate(5, 3)
    wide_then_cut = (((1 + s.truncate(5, 3) + lam.truncate(5, 3)) ** 5)
                     * (1 - s.truncate(5, 3)).inverse())
    assert small == wide_then_cut


def test_series3_log_small():
    # at lambda cap 0 the relation series is log(1 + t + s)
    D, L = 6, 0
    t = Series3.var("t", D, L)
    s = Series3.var("s", D, L)
    f = relation_series(D, L)
    # hand expansion: t - t^2/2 + s + t^3/3 - ts ...
    assert f.coeff(1, 0, 0) == ONE
    assert f.coeff(2, 0, 0) == Rat(-1, 2)
    assert f.coeff(0, 1, 0) == ONE
    assert f.coeff(1, 1, 0) == Rat(-1)
    assert f.coeff(3, 0, 0) == Rat(1, 3)
    assert _exp(f, D) == 1 + t + s
    assert f == _relation_series_3var(D, L)


def test_series3_inverse_sqrt():
    D, L = 8, 4
    s = Series3.var("s", D, L)
    lam = Series3.var("l", D, L)
    A = 1 - lam * s
    assert A * A.inverse() == Series3.const(1, D, L)
    r = A.sqrt()
    assert r * r == A


def test_degree_le_report():
    s, lam = s2()
    ok = assert_degree_le(s * s + lam, 4)
    assert ok.ok
    bad = assert_degree_le(s ** 3, 4)
    assert not bad.ok and bad.witness is not None


# -- LaurentX --------------------------------------------------------------


def test_laurent_inverse():
    # the geometric series sum (2x)^k inverts 1 - 2x under the truncated
    # product: the only leftover term, -2^(N+1) x^(N+1), is above the cap
    N = 12
    a = LaurentX({0: ONE, 1: Rat(-2)}, {}, N)  # 1 - 2x
    inv = LaurentX({k: Rat(2) ** k for k in range(N + 1)}, {}, N)
    assert a * inv == LaurentX.const(1, N)
    short = LaurentX({k: Rat(2) ** k for k in range(N)}, {}, N)
    assert a * short == LaurentX({0: ONE, N: -Rat(2) ** N}, {}, N)


def test_laurent_negative_exponents():
    N = 6
    x_inv = LaurentX({-1: ONE}, {}, N)
    assert (x_inv * x_inv).coeff(-2) == (ONE, ZERO)
    shifted = x_inv * LaurentX({2: Rat(3)}, {}, N)
    assert shifted.coeff(1) == (Rat(3), ZERO)


def test_laurent_log2_formal():
    N = 8
    two = LaurentX.const(2, N)
    lg = two.log()
    assert lg == LaurentX({}, {0: ONE}, N)


@given(st.integers(-3, 3), st.integers(1, 5))
@settings(max_examples=20)
def test_laurent_const_arith(c, d):
    N = 10
    a = LaurentX.const(c, N)
    b = LaurentX.const(d, N)
    assert a + b == LaurentX.const(c + d, N)
    assert a * b == LaurentX.const(c * d, N)
