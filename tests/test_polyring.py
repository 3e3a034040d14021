"""Polynomial layer: arithmetic, exact division, gcd (both strategies),
normalization of polynomial vectors, and the text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tutteval.exactnum import ONE, Rat
from tutteval._kernels_py import mul_poly
from tutteval.polyring import (Poly, _euclid_lists, _interpolate,
                               _poly_gcd_bivar, clear_and_normalize,
                               partial_derivative, poly_div_exact, poly_gcd,
                               poly_parse, poly_to_str, primitive_rat,
                               rat_content)

t, s, lam = Poly.var("t"), Poly.var("s"), Poly.var("l")


def _random_poly(rng, nvars=2, deg=4, nterms=5, start=0):
    terms = {}
    for _ in range(nterms):
        m = [0] * 6
        for i in range(nvars):
            m[start + i] = rng.randrange(deg + 1)
        terms[tuple(m)] = Rat(rng.randrange(-9, 10) or 1,
                              rng.choice((1, 1, 2, 3)))
    return Poly(terms)


# -- arithmetic ------------------------------------------------------------


def test_poly_basics():
    p = (t + s) * (t - s)
    assert p == t * t - s * s
    assert p.degree("t") == 2
    assert p.degree() == 2
    assert (t + 1) ** 3 == t ** 3 + 3 * t ** 2 + 3 * t + 1


def test_integral_product_matches_rational_kernel():
    # integral factors are multiplied on ints; the result must equal the
    # product on the rational coefficients and keep Rat coefficients
    A = 3 * t ** 2 * s - 5 * lam + 7
    B = 2 * t - lam ** 3 + 11
    P = A * B
    assert P.terms == mul_poly(A.terms, B.terms)
    assert all(isinstance(c, type(ONE)) for c in P.terms.values())
    assert (A * B.scale(Rat(1, 2))).scale(Rat(2)) == P


def test_poly_zero_and_const():
    assert Poly.zero().is_zero()
    assert (t - t).is_zero()
    assert Poly.const(Rat(5, 2)).const_value() == Rat(5, 2)
    assert not (t + 1).is_const()


def test_str_parse_roundtrip():
    p = 3 * t ** 2 * s - Rat(1, 2) * lam + 7
    assert poly_parse(poly_to_str(p)) == p
    assert poly_parse("12*l*f^3 + 52*l*f^2 + 4*l*f - 36*l + 9*f").degree("f") == 3


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, nvars=3, start=1)
    assert poly_parse(poly_to_str(p)) == p


def test_partial_derivative():
    assert partial_derivative(t ** 3 * s, "t") == 3 * t ** 2 * s
    assert partial_derivative(t ** 3 * s, "s") == t ** 3
    assert partial_derivative(Poly.const(ONE), "t").is_zero()


# -- exact division --------------------------------------------------------


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_div_exact_recovers_quotient(seed):
    rng = random.Random(seed)
    B = _random_poly(rng, nterms=rng.randrange(1, 5))
    Q = _random_poly(rng, nterms=rng.randrange(1, 6))
    if B.is_zero() or Q.is_zero():
        return
    assert poly_div_exact(B * Q, B) == Q


def test_div_inexact_raises():
    with pytest.raises(ArithmeticError):
        poly_div_exact(t ** 2 + 1, t + 1)
    with pytest.raises(ZeroDivisionError):
        poly_div_exact(t, Poly.zero())
    # every monomial divides, but lc(B) = 2 does not divide 5: the
    # remainder 6 - 2*3 vanishes only if that step is taken as 5 // 2
    with pytest.raises(ArithmeticError):
        poly_div_exact(5 * t ** 2 + 6, 2 * t ** 2 + 3)
    with pytest.raises(ArithmeticError):
        poly_div_exact(2 * t ** 2 + 2 * t + 1, 2 * t + 2)
    with pytest.raises(ArithmeticError):
        poly_div_exact(t, t ** 2)


def naive_div_exact(A: dict, B: dict):
    """Reference: grlex long division over Q on tuple keys with Fraction
    coefficients; the quotient if B divides A exactly, else None."""
    def key(m):
        return (sum(m), m)

    rem = {m: Fraction(c) for m, c in A.items()}
    lmB = max(B, key=key)
    lcB = Fraction(B[lmB])
    quo = {}
    while rem:
        lm = max(rem, key=key)
        d = tuple(a - b for a, b in zip(lm, lmB))
        if min(d) < 0:
            return None
        q = rem[lm] / lcB
        quo[d] = q
        for mB, cB in B.items():
            m = tuple(x + y for x, y in zip(d, mB))
            v = rem.get(m, Fraction(0)) - q * cB
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return quo


def _agrees_with_naive(A: Poly, B: Poly):
    expected = naive_div_exact(A.terms, B.terms)
    if expected is None:
        with pytest.raises(ArithmeticError):
            poly_div_exact(A, B)
    else:
        assert poly_div_exact(A, B).terms == expected
    return expected


def _int_poly(rng, nvars=3, deg=5, nterms=5, bits=40):
    terms = {}
    for _ in range(nterms):
        m = [0] * 6
        for i in rng.sample(range(6), nvars):
            m[i] = rng.randrange(deg + 1)
        terms[tuple(m)] = Rat(rng.randrange(-2 ** bits, 2 ** bits) or 1)
    return Poly(terms)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_div_exact_integral_matches_naive(seed):
    rng = random.Random(seed)
    B = _int_poly(rng, nterms=rng.randrange(1, 5))
    Q = _int_poly(rng, nterms=rng.randrange(1, 6))
    assert _agrees_with_naive(B * Q, B) == Q.terms


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_div_exact_rational_and_non_primitive(seed):
    # rational coefficients, and divisors with a nontrivial content (an
    # integer factor or a fraction) in front of a primitive polynomial
    rng = random.Random(seed)
    B = _random_poly(rng, nterms=rng.randrange(1, 5))
    Q = _random_poly(rng, nterms=rng.randrange(1, 6))
    if B.is_zero() or Q.is_zero():
        return
    for c in (Rat(1), Rat(6), Rat(-4, 9), Rat(12, 5)):
        assert _agrees_with_naive(B * Q, B.scale(c)) == Q.scale(1 / c).terms


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_div_exact_decides_like_naive(seed):
    # arbitrary pairs, mostly inexact: poly_div_exact raises exactly when
    # long division over Q leaves a remainder
    rng = random.Random(seed)
    B = _random_poly(rng, nvars=2, deg=3, nterms=rng.randrange(1, 4))
    A = B * _random_poly(rng, nvars=2, deg=3, nterms=rng.randrange(1, 4))
    if rng.random() < 0.8:
        A = A + _random_poly(rng, nvars=2, deg=4, nterms=1)
    if B.is_zero() or A.is_zero() or B.is_const():
        return
    _agrees_with_naive(A, B)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_div_exact_at_field_width_boundary(k):
    # dividend of total degree 2^k - 1 (and 2^k): the widest value a packed
    # field holds, next to its guard bit
    for top in (2 ** k - 1, 2 ** k):
        B = 3 * s ** (top // 2) - 2 * lam + 1
        Q = t ** (top - top // 2) + 5 * lam - 7
        A = B * Q
        assert A.degree() == top
        assert _agrees_with_naive(A, B) == Q.terms
        _agrees_with_naive(A + t, B)
        _agrees_with_naive(A, B * t)
        # one variable filling its whole field
        assert _agrees_with_naive(t ** top - 1, t - 1) is not None
        assert _agrees_with_naive(lam ** top - 1, 3 * lam + 2) is None


# -- univariate gcd images ---------------------------------------------------


def naive_euclid(a: list, b: list) -> list:
    """Reference: Euclid's algorithm over Q on Fraction coefficient lists,
    returning the monic gcd ([] if both are zero)."""
    def trim(v):
        v = [Fraction(x) for x in v]
        while v and not v[-1]:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] -= q * y
            a = trim(a)
        a, b = b, a
    return [x / a[-1] for x in a] if a else []


def _rat_list(rng, deg):
    return [Rat(rng.randrange(-30, 31), rng.choice((1, 1, 2, 3, 7)))
            for _ in range(deg + 1)]


def _list_mul(a, b):
    out = [Rat(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_euclid_lists_matches_naive(seed):
    rng = random.Random(seed)
    G = _rat_list(rng, rng.randrange(0, 4))
    a = _list_mul(G, _rat_list(rng, rng.randrange(0, 6)))
    b = _list_mul(G, _rat_list(rng, rng.randrange(0, 6)))
    if rng.random() < 0.2:
        b = b + [Rat(0)] * 2  # trailing zeros are not part of the degree
    g = _euclid_lists(a, b)
    assert g == naive_euclid(a, b)
    assert all(isinstance(c, type(ONE)) for c in g)
    assert _euclid_lists(a, []) == naive_euclid(a, [])
    assert _euclid_lists([], []) == []


# -- content and normalization --------------------------------------------


def test_rat_content_fractional():
    # a trailing fractional coefficient must still lower the content
    p = t + Rat(3, 2) * s
    assert rat_content(p) == Rat(1, 2)
    c, pp = primitive_rat(p)
    assert c == Rat(1, 2) and pp == 2 * t + 3 * s


def test_primitive_rat_sign():
    c, pp = primitive_rat(-2 * t - 4)
    assert c == Rat(-2) and pp == t + 2
    assert pp.leading_coeff() > 0


# -- gcd: both strategies --------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(t ** 2 - s ** 2, t + s) == t + s
    assert poly_gcd((t + 1) ** 2 * s, (t + 1) * s ** 2) == (t + 1) * s
    assert poly_gcd(t, s) == Poly.one()
    assert poly_gcd(Poly.zero(), 3 * t) == t
    assert poly_gcd(Rat(4) * Poly.one(), Rat(6) * Poly.one()) == Poly.const(Rat(2))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_inputs(seed):
    rng = random.Random(seed)
    A = _random_poly(rng, nterms=rng.randrange(1, 5))
    B = _random_poly(rng, nterms=rng.randrange(1, 5))
    if A.is_zero() or B.is_zero():
        return
    g = poly_gcd(A, B)
    poly_div_exact(A, g)
    poly_div_exact(B, g)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_bivar_gcd_matches_prs(seed):
    # the interpolation strategy must return exactly the PRS answer
    rng = random.Random(seed)
    G = _random_poly(rng, nvars=2, deg=3, nterms=3, start=1)
    A = G * _random_poly(rng, nvars=2, deg=3, nterms=3, start=1)
    B = G * _random_poly(rng, nvars=2, deg=3, nterms=3, start=1)
    if A.is_zero() or B.is_zero():
        return
    pv = A.vars_present() | B.vars_present()
    if len(pv) != 2:
        return
    v1, v2 = sorted(pv)
    prs = poly_gcd(A, B)
    assert _poly_gcd_bivar(A, B, v1, v2) == prs
    assert _poly_gcd_bivar(A, B, v2, v1) == prs


def naive_interpolate(xs: list, ys: list) -> list:
    """Reference: Newton divided differences over Q, then expansion of the
    Newton form; the coefficient list of the polynomial through the points."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        coeffs = [(coeffs[k - 1] if k else 0) - xs[i] * coeffs[k]
                  for k in range(n)]
        coeffs[0] += dd[i]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_interpolate_matches_newton(seed):
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(-5, 40), rng.randrange(1, 12)))
    columns = [[Rat(rng.randrange(-99, 100), rng.choice((1, 1, 4, 9)))
                for _ in xs] for _ in range(3)]
    columns.append([Rat(0)] * len(xs))
    assert _interpolate(xs, columns) == [naive_interpolate(xs, ys)
                                         for ys in columns]


def test_gcd_large_dispatch():
    # over the dispatch threshold the interpolation path is used; the common
    # factor must still come back exactly
    G = (s ** 3 + lam * s - 2) * (s - lam ** 2 + 1)
    A = G * sum((i + 1) * s ** i * lam ** (i % 4) for i in range(45))
    B = G * sum((2 * i + 1) * s ** (i % 7) * lam ** i for i in range(40))
    g = poly_gcd(A, B)
    poly_div_exact(g, primitive_rat(G)[1])


# -- vector normalization --------------------------------------------------


def test_clear_and_normalize():
    v = [Rat(2, 3) * t * s * lam, Rat(4, 5) * t * t * lam ** 2]
    out = clear_and_normalize(v)
    assert out == [5 * s, 6 * t * lam]
    # the normalized vector stays proportional to the input
    assert out[0] * v[1] == out[1] * v[0]
    with pytest.raises(ValueError):
        clear_and_normalize([Poly(), Poly()])


def test_clear_and_normalize_sign():
    out = clear_and_normalize([-t, -s], sign_entry=0)
    assert out[0].leading_coeff() > 0
    # a zero designated entry hands the sign to the first nonzero one
    assert clear_and_normalize([Poly(), -s, t], sign_entry=0) == \
        [Poly(), s, -t]
