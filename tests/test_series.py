"""Truncated power series: inversion, square root, log/exp, and the
Laurent layer with its formal log 2."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tutteval.exactnum import ONE, Rat, ZERO
from tutteval.polyring import Poly
from tutteval.series import LaurentX, Series2, Series3
from test_template import _relation_series_3var, _relation_series_log


def s2(S=8, L=6):
    return (Series2.var("s", S, L), Series2.var("l", S, L))


def lx(q, p, N):
    """q(x) + p(x)*log2 at cap N, from the maps {k: coefficient} of the
    rational part q and the log2 part p."""
    return LaurentX({**{(k, 0): v for k, v in q.items()},
                     **{(k, 1): v for k, v in p.items()}}, N)


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


def test_relation_series_small():
    # at lambda cap 0 the relation series is log(1 + t + s)
    D, L = 6, 0
    t = Series3({(1, 0, 0): 1}, D, L)
    s = Series3({(0, 1, 0): 1}, D, L)
    f = _relation_series_log(D, L)
    # hand expansion: t - t^2/2 + s + t^3/3 - ts ...
    assert f.coeff(1, 0, 0) == ONE
    assert f.coeff(2, 0, 0) == Rat(-1, 2)
    assert f.coeff(0, 1, 0) == ONE
    assert f.coeff(1, 1, 0) == Rat(-1)
    assert f.coeff(3, 0, 0) == Rat(1, 3)
    assert _exp(f, D) == 1 + t + s
    assert f == _relation_series_3var(D, L)


# -- the recurrence core against naive oracles -------------------------------


def _naive_mul(A, B, S, L):
    """Truncated product of two {(b, c): value} maps on Fractions."""
    out = {}
    for (b1, c1), x in A.items():
        for (b2, c2), y in B.items():
            k = (b1 + b2, c1 + c2)
            if k[0] <= S and k[1] <= L:
                out[k] = out.get(k, 0) + Fraction(x) * y
    return {k: v for k, v in out.items() if v}


def _ints_where_integral(A):
    return all(type(v) is int for v in A.coeffs.values()
               if Fraction(v).denominator == 1)


_caps = st.tuples(st.integers(0, 4), st.integers(0, 4))
_tail = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    st.fractions(-4, 4, max_denominator=3) | st.integers(-4, 4), max_size=6)


def _series(caps, c0, tail):
    return Series2({**tail, (0, 0): c0}, *caps)


@given(_caps, st.sampled_from([1, -1, 2, 3, Rat(-2, 3), Rat(1, 2)]), _tail)
@example((0, 4), 2, {(0, 1): 1, (0, 3): Rat(1, 3)})
@example((4, 0), 3, {(1, 0): 1, (2, 0): -2})
@settings(max_examples=80, deadline=None)
def test_inverse_times_series_is_one(caps, c0, tail):
    A = _series(caps, c0, tail)
    inv = A.inverse()
    assert _naive_mul(A.coeffs, inv.coeffs, *caps) == {(0, 0): 1}
    assert inv.caps == caps and _ints_where_integral(inv)


@given(_caps, _tail)
@example((0, 4), {(0, 1): 1})
@example((4, 0), {(1, 0): -4})
@settings(max_examples=80, deadline=None)
def test_sqrt_squared_is_the_series(caps, tail):
    A = _series(caps, 1, tail)
    root = A.sqrt()
    assert root.coeff(0, 0) == 1
    assert _naive_mul(root.coeffs, root.coeffs, *caps) == A.coeffs
    assert _ints_where_integral(root)


@given(_caps, st.sampled_from([1, 2, Rat(2)]), _tail)
@example((0, 4), 2, {(0, 1): 1})
@example((4, 0), 1, {(1, 0): Rat(-1, 2)})
@settings(max_examples=80, deadline=None)
def test_exp_of_log_is_the_series(caps, c0, tail):
    A = _series(caps, c0, tail)
    lg, l2 = A.log()
    assert l2 == (1 if c0 == 2 else 0)
    assert lg.coeff(0, 0) == 0
    assert _exp(lg, sum(caps)).scale(c0) == A
    assert _ints_where_integral(lg)


def test_recurrence_rejects_bad_constant_terms():
    s, lam = s2(3, 3)
    with pytest.raises(ZeroDivisionError):
        (s + lam).inverse()
    for bad in (2 + s, -1 + s, s):
        with pytest.raises(ValueError):
            bad.sqrt()
    for bad in (3 + s, Rat(1, 2) + s, s):
        with pytest.raises(ValueError):
            bad.log()
    with pytest.raises(ValueError):
        lx({-1: ONE, 0: ONE}, {}, 6).log()
    with pytest.raises(ValueError):
        LaurentX.const(3, 6).log()
    with pytest.raises(ArithmeticError):
        lx({0: ONE}, {1: ONE}, 6).log()


def test_laurent_log_matches_the_log_series():
    # log(1 + 2x) = sum_k (-1)^(k+1) (2x)^k / k, and log 2 rides along for
    # the argument 2 + 4x = 2 (1 + 2x)
    N = 12
    want = {k: Rat((-1) ** (k + 1) * 2 ** k, k) for k in range(1, N + 1)}
    assert lx({0: ONE, 1: Rat(2)}, {}, N).log() == lx(want, {}, N)
    assert lx({0: Rat(2), 1: Rat(4)}, {}, N).log() == lx(want, {0: ONE}, N)


# -- LaurentX --------------------------------------------------------------


def test_laurent_inverse():
    # the geometric series sum (2x)^k inverts 1 - 2x under the truncated
    # product: the only leftover term, -2^(N+1) x^(N+1), is above the cap
    N = 12
    a = lx({0: ONE, 1: Rat(-2)}, {}, N)  # 1 - 2x
    inv = lx({k: Rat(2) ** k for k in range(N + 1)}, {}, N)
    assert a * inv == LaurentX.const(1, N)
    short = lx({k: Rat(2) ** k for k in range(N)}, {}, N)
    assert a * short == lx({0: ONE, N: -Rat(2) ** N}, {}, N)


def test_laurent_negative_exponents():
    N = 6
    x_inv = lx({-1: ONE}, {}, N)
    assert (x_inv * x_inv).coeffs == {(-2, 0): ONE}
    shifted = x_inv * lx({2: Rat(3)}, {}, N)
    assert shifted.coeffs == {(1, 0): Rat(3)}


def test_laurent_log2_formal():
    N = 8
    two = LaurentX.const(2, N)
    lg = two.log()
    assert lg == lx({}, {0: ONE}, N)


@given(st.integers(-3, 3), st.integers(1, 5))
@settings(max_examples=20)
def test_laurent_const_arith(c, d):
    N = 10
    a = LaurentX.const(c, N)
    b = LaurentX.const(d, N)
    assert a + b == LaurentX.const(c + d, N)
    assert a * b == LaurentX.const(c * d, N)


_laurent_part = st.dictionaries(
    st.integers(-4, 6), st.fractions(-4, 4, max_denominator=3)
    | st.integers(-4, 4), max_size=5)


@given(_laurent_part, _laurent_part, _laurent_part, st.integers(-2, 6))
@example({-2: 1, 0: Rat(1, 2)}, {-1: Rat(2, 3), 3: 1}, {1: 3, 2: -1}, 2)
@settings(max_examples=80, deadline=None)
def test_laurent_product_matches_a_naive_convolution(q, p, r, N):
    # one log2 part at most: x^k log2^j under (k, j) convolves like
    # s^k lambda^j at lambda cap 1, negative exponents included
    A, B = lx(q, p, N), lx(r, {}, N)
    want = _naive_mul(A.coeffs, B.coeffs, N, 1)
    assert (A * B).coeffs == want and (B * A).coeffs == want
    assert (A * B).caps == (N,) and _ints_where_integral(A * B)


def test_laurent_refuses_a_log2_squared_term():
    N = 4
    a = lx({0: ONE}, {0: ONE}, N)  # 1 + log2
    b = lx({}, {-1: Rat(1, 2)}, N)
    for x, y in ((a, b), (b, a), (a, a)):
        with pytest.raises(ArithmeticError):
            x * y
    # the guard looks at the operands, not at where the product would land
    with pytest.raises(ArithmeticError):
        lx({}, {N: ONE}, N) * lx({}, {N: ONE}, N)
    assert (a * lx({1: 2}, {}, N)).coeffs == {(1, 0): 2, (1, 1): 2}


_key3 = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
_vals = st.fractions(-4, 4, max_denominator=3) | st.integers(-4, 4)


@given(_caps, _tail, st.tuples(st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_series2_shift_is_the_product_by_the_monomial(caps, tail, offset):
    A = Series2(tail, *caps)
    moved = A.shift(*offset)
    assert moved == A * Series2({offset: 1}, *caps)
    assert moved.caps == caps
    assert all(k[0] <= caps[0] and k[1] <= caps[1] for k in moved.coeffs)
    assert A.shift(offset[0]) == A.shift(offset[0], 0)


@given(st.dictionaries(_key3, _vals, max_size=6), st.integers(0, 8),
       st.integers(0, 3), _key3)
@settings(max_examples=60, deadline=None)
def test_series3_shift_is_the_product_by_the_monomial(terms, D, L, offset):
    A = Series3(terms, D, L)
    moved = A.shift(*offset)
    assert moved == A * Series3({offset: 1}, D, L)
    assert moved.caps == (D, L)
    assert A.shift(offset[0]) == A.shift(offset[0], 0, 0)


@given(_laurent_part, _laurent_part, st.integers(-2, 6), st.data())
@example({-2: 1}, {3: Rat(1, 2)}, 2, None)
@settings(max_examples=60, deadline=None)
def test_laurent_shift_is_the_product_by_the_monomial(q, p, N, data):
    # x^k with k <= N, so the monomial itself is inside the cap; a shift
    # down is a division by x^-k, exact on a Laurent series
    k = data.draw(st.integers(-4, N)) if data else N
    A = lx(q, p, N)
    moved = A.shift(k)
    assert moved == A * lx({k: 1}, {}, N)
    assert moved.coeffs == {(e + k, j): v for (e, j), v in A.coeffs.items()
                            if e + k <= N}


def test_integral_results_stay_ints():
    s, lam = s2(4, 4)
    half = Series2({(0, 0): Rat(1, 2), (1, 1): Rat(3, 2)}, 4, 4)
    for A in (half * 2, half.scale(Rat(4)), half * half.scale(4),
              (half * 2) ** 3, (half * 2).shift(1, 1), -(half * 2),
              half * 2 + 1 - s):
        assert A.coeffs and _ints_where_integral(A)
        assert all(type(v) is int for v in A.coeffs.values())
    x = lx({-1: Rat(1, 2)}, {2: Rat(3, 4)}, 4)
    assert all(type(v) is int for v in x.scale(4).coeffs.values())
    assert all(type(v) is int
               for v in (x * lx({1: 4}, {}, 4)).coeffs.values())


def test_negative_powers_are_refused():
    # x^-1 would need an inverse; the repeated squaring never ends on it
    s, lam = s2(3, 3)
    for x in (1 + s, Series3({(1, 0, 0): 1}, 4, 2), LaurentX.const(2, 3),
              Poly.var("s") + 1):
        with pytest.raises(ValueError):
            x ** -1
        assert x ** 3 == x * x * x
