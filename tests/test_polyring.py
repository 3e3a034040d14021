"""Polynomial layer: arithmetic, exact division, gcd (sympy as the
independent reference), normalization of polynomial vectors, and the text
format."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tutteval import polyring
from tutteval.exactnum import ONE, Rat
from tutteval._kernels_py import mul_poly
from tutteval.polyring import (VARS, Poly, _euclid_lists, clear_and_normalize,
                               partial_derivative, poly_div_exact, poly_gcd,
                               poly_to_str, primitive_rat, rat_content,
                               sums_of_products)

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
    assert p.degree("t") == p.degree("s") == 2
    assert p.degree("l") == 0 and Poly().degree("t") == -1
    assert (t + 1) ** 3 == t ** 3 + 3 * t ** 2 + 3 * t + 1


def test_integral_product_matches_rational_kernel():
    # integral factors are multiplied on ints; the result must equal the
    # product on the rational coefficients and keep int coefficients
    A = 3 * t ** 2 * s - 5 * lam + 7
    B = 2 * t - lam ** 3 + 11
    P = A * B
    assert P.terms == mul_poly(A.terms, B.terms)
    assert all(type(c) is int for c in P.terms.values())
    assert (A * B.scale(Rat(1, 2))).scale(Rat(2)) == P


def test_poly_zero_and_const():
    assert Poly().is_zero()
    assert (t - t).is_zero()
    assert Poly.const(Rat(5, 2)).const_value() == Rat(5, 2)
    assert not (t + 1).is_const()


def test_str_canonical_text():
    # descending graded-lex order, unit coefficients and magnitudes written
    # without their sign, which goes between the terms
    p = 3 * t ** 2 * s - Rat(1, 2) * lam + 7
    assert poly_to_str(p) == "3*t^2*s - 1/2*l + 7"
    assert poly_to_str(1 - t * lam ** 2) == "-t*l^2 + 1"
    assert poly_to_str(Poly()) == "0"


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
        poly_div_exact(t, Poly())
    # every monomial divides, but lc(B) = 2 does not divide 5: the
    # remainder 6 - 2*3 vanishes only if that step is taken as 5 // 2
    with pytest.raises(ArithmeticError):
        poly_div_exact(5 * t ** 2 + 6, 2 * t ** 2 + 3)
    with pytest.raises(ArithmeticError):
        poly_div_exact(2 * t ** 2 + 2 * t + 1, 2 * t + 2)
    with pytest.raises(ArithmeticError):
        poly_div_exact(t, t ** 2)


def _long_division_spy(monkeypatch):
    """A list that records each long division `poly_div_exact` starts (on
    the flat exponent indices, in `_long_division`)."""
    started = []
    long_division = polyring._long_division

    def spy(*args):
        started.append(args)
        return long_division(*args)

    monkeypatch.setattr(polyring, "_long_division", spy)
    return started


def test_div_exact_rejects_at_the_point_first(monkeypatch):
    # at the point t = 2, s = 3, l = 5: B(x) does not divide A(x), which
    # proves B does not divide A before any long division starts
    started = _long_division_spy(monkeypatch)
    for A, B in ((t ** 2 + 1, t + 1),           # 5 against 3
                 (s * lam + 2, s + lam),        # 17 against 8
                 (3 * s ** 2 - 1, 2 * s + 1)):  # 26 against 7
        assert polyring._value_at_point(A.terms) % \
            polyring._value_at_point(B.terms)
        with pytest.raises(ArithmeticError):
            poly_div_exact(A, B)
    assert started == []
    # an exact quotient still goes through the long division
    assert poly_div_exact((t + 1) * (s - lam), t + 1) == s - lam
    assert len(started) == 1


def test_div_exact_falls_through_at_a_root_of_the_divisor(monkeypatch):
    # B(x) = 0 at the point proves nothing, and B(x) | A(x) does not prove
    # B | A: both go to the long division, which decides
    started = _long_division_spy(monkeypatch)
    cases = ((t ** 2 + 1, t - 2, None),               # B(2) = 0, A(2) = 5
             ((t - 2) * (t + 5), t - 2, t + 5),
             (s ** 2 - lam ** 2 + s, s * 5 - lam * 3, None),  # B = 0
             (t ** 2 + 2, t + 1, None))               # 3 divides 6
    for A, B, Q in cases:
        if Q is None:
            with pytest.raises(ArithmeticError):
                poly_div_exact(A, B)
        else:
            assert poly_div_exact(A, B) == Q
    assert len(started) == len(cases)


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


def test_div_exact_refuses_a_quotient_digit_past_its_room(monkeypatch):
    # (s l^3 + s^3) / (l + 1): 6 divides 402 at the point, and on A's
    # flat index (ext_l = 4) the long division leaves no cell below lead(B),
    # but with the quotient digit s^2 l^3, past the room 3 - 1 for l: the
    # index carried, and the division is refused
    A, B = s * lam ** 3 + s ** 3, lam + 1
    assert polyring.point_value(A) % polyring.point_value(B) == 0
    started = _long_division_spy(monkeypatch)
    with pytest.raises(ArithmeticError):
        poly_div_exact(A, B)
    assert len(started) == 1
    assert naive_div_exact(A.terms, B.terms) is None


def _flat(terms: dict, E: int) -> dict:
    """{s E + l: c} over the terms s^s l^l: c."""
    return {m[1] * E + m[2]: c for m, c in terms.items()}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_div_exact_quotient_digits_at_the_box_edge(data):
    # A's box has ext_l = E.  A quotient whose l-digits reach the edge,
    # E - 1 - deg_l B, divides; a quotient taken on the flat index s E + l
    # with one l-digit one past it leaves no remainder in one variable, but
    # B does not divide A, and the division is refused
    E = data.draw(st.integers(2, 6))
    bl = data.draw(st.integers(1, E - 1))
    room = E - 1 - bl
    small = st.integers(-5, 5).filter(bool)
    B = Poly({(0, data.draw(st.integers(0, 2)), bl, 0, 0, 0): 1})
    B = B + Poly({(0, bs, b, 0, 0, 0): data.draw(small)
                  for bs, b in data.draw(st.lists(st.tuples(
                      st.integers(0, 2), st.integers(0, bl)), max_size=3))})
    past = data.draw(st.booleans())
    digits = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                          st.integers(0, room)), max_size=3))
    digits.append((data.draw(st.integers(0, 2)), room + past))
    Q = {(0, qs, ql, 0, 0, 0): data.draw(small) for qs, ql in digits}
    # the product in one variable z, z^(s E + l) for s^s l^l
    prod = {}
    for kq, cq in _flat(Q, E).items():
        for kb, cb in _flat(B.terms, E).items():
            prod[kq + kb] = prod.get(kq + kb, 0) + cq * cb
    A = Poly({(0, k // E, k % E, 0, 0, 0): c for k, c in prod.items()})
    if (A.degree("l") != E - 1 or B.degree("l") != bl
            or len(B.terms) < 2):
        # another box, terms of B that cancel its l^bl, which leaves the
        # digit room + 1 within the room, or a monomial divisor
        return
    # with the point test off, the long division and its digit check decide
    with mock.patch.object(polyring, "_value_at_point", lambda terms: 0):
        if past:
            with pytest.raises(ArithmeticError):
                poly_div_exact(A, B)
        else:
            assert poly_div_exact(A, B) == Poly(Q)
    if past:
        assert naive_div_exact(A.terms, B.terms) is None
    else:
        assert A == B * Poly(Q)


def test_div_exact_on_a_sparse_box_allocates_no_box():
    # six variables, a dozen terms, and a box of about 4e16 cells: the
    # cells go into a dict, and the division takes no more memory than
    # its terms need (a flat list over the box could not even be made)
    tracemalloc = pytest.importorskip("tracemalloc")
    x, y, f = Poly.var("x"), Poly.var("y"), Poly.var("f")
    B = t ** 300 * s ** 250 * lam ** 400 + 3 * f ** 350 * x ** 280 - y ** 390
    Q = 5 * t ** 310 * y ** 300 + x ** 420 - 2 * s ** 260 * f ** 330 + 7
    A = B * Q
    cells = 1
    for i in range(6):
        cells *= A.degree(i) + 1
    assert cells > 10 ** 16
    tracemalloc.start()
    try:
        assert poly_div_exact(A, B) == Q
        with pytest.raises(ArithmeticError):
            poly_div_exact(A + s, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_div_exact_at_field_width_boundary(k):
    # dividend of total degree 2^k - 1 (and 2^k), with one variable filling
    # its extent of the exponent box up to the edge
    for top in (2 ** k - 1, 2 ** k):
        B = 3 * s ** (top // 2) - 2 * lam + 1
        Q = t ** (top - top // 2) + 5 * lam - 7
        A = B * Q
        assert max(map(sum, A.terms)) == top
        assert _agrees_with_naive(A, B) == Q.terms
        _agrees_with_naive(A + t, B)
        _agrees_with_naive(A, B * t)
        # one variable filling its whole field
        assert _agrees_with_naive(t ** top - 1, t - 1) is not None
        assert _agrees_with_naive(lam ** top - 1, 3 * lam + 2) is None


# -- the coefficient contract: int when integral, Fraction otherwise --------

int_coeffs = st.integers(-10 ** 12, 10 ** 12).filter(bool)
rat_coeffs = st.one_of(
    int_coeffs,
    st.builds(Rat, st.integers(-99, 99).filter(bool), st.integers(1, 12)))
monos = st.tuples(st.just(0), st.integers(0, 4), st.integers(0, 4),
                  st.integers(0, 2), st.just(0), st.just(0))


def _polys(coeffs):
    return st.dictionaries(monos, coeffs, min_size=1, max_size=7).map(Poly)


def naive_mul(A: dict, B: dict) -> dict:
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {m: c for m, c in out.items() if c}


def _honours_contract(P: Poly):
    for c in P.terms.values():
        # an int when integral, else a Fraction, and never a float
        assert type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                         ids=["integral", "rational"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_values_and_types(coeffs, data):
    A, B = data.draw(_polys(coeffs)), data.draw(_polys(coeffs))
    P = A * B
    assert P.terms == naive_mul(A.terms, B.terms)
    _honours_contract(P)


@pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                         ids=["integral", "rational"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_div_exact_values_and_types(coeffs, data):
    B, Q = data.draw(_polys(coeffs)), data.draw(_polys(coeffs))
    A = Poly(naive_mul(B.terms, Q.terms))
    q = poly_div_exact(A, B)
    assert q.terms == {m: Fraction(c) for m, c in Q.terms.items()}
    _honours_contract(q)


@pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                         ids=["integral", "rational"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scale_values_and_types(coeffs, data):
    A = data.draw(_polys(coeffs))
    # integral factors as int and as Fraction, and non-integral ones
    q = data.draw(st.one_of(int_coeffs, st.builds(Rat, int_coeffs),
                            rat_coeffs))
    P = A.scale(q)
    assert P.terms == {m: Fraction(c) * Fraction(q)
                       for m, c in A.terms.items()}
    _honours_contract(P)
    _honours_contract(A.scale(Rat(1, 7)).scale(7))


def test_integral_quotients_of_rationals_become_ints():
    half = Poly({(0, 1, 0, 0, 0, 0): Rat(1, 2), (0, 0, 0, 0, 0, 0): Rat(3, 2)})
    for P in (half.scale(2), half * Poly.const(Rat(4)),
              poly_div_exact(half, Poly.const(Rat(1, 2))),
              poly_div_exact(half * half, half.scale(Rat(1, 2)))):
        _honours_contract(P)
        assert all(type(c) is int for c in P.terms.values())


@given(monos, st.integers(-10 ** 30, 10 ** 30).filter(bool))
@settings(max_examples=40)
def test_int_and_integral_fraction_coefficients_agree(m, c):
    a, b = Poly({m: c}), Poly({m: Rat(c)})
    assert a == b
    assert hash(a) == hash(b)
    assert poly_to_str(a) == poly_to_str(b)
    assert a + t == b + t and hash(a * t) == hash(b * t)


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


# -- gcd --------------------------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(s ** 2 - 1, s + 1) == s + 1
    assert poly_gcd((lam + 1) ** 2 * lam, (lam + 1) * lam ** 2) == \
        (lam + 1) * lam
    assert poly_gcd(t, t + 1) == Poly.one()
    assert poly_gcd(Poly(), 3 * t) == t
    assert poly_gcd(Rat(4) * Poly.one(), Rat(6) * Poly.one()) == Poly.const(Rat(2))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_inputs(seed):
    rng = random.Random(seed)
    v = rng.randrange(3)
    G = _random_poly(rng, nvars=1, deg=3, nterms=2, start=v)
    A = G * _random_poly(rng, nvars=1, nterms=rng.randrange(1, 5), start=v)
    B = G * _random_poly(rng, nvars=1, nterms=rng.randrange(1, 5), start=v)
    if A.is_zero() or B.is_zero():
        return
    g = poly_gcd(A, B)
    poly_div_exact(A, g)
    poly_div_exact(B, g)
    poly_div_exact(g, G)


def test_gcd_rejects_three_variables():
    # poly_gcd is univariate: two variables are refused as well as three
    with pytest.raises(ValueError):
        poly_gcd(t * s, s + 1)
    with pytest.raises(ValueError):
        poly_gcd(s, lam)
    with pytest.raises(ValueError):
        poly_gcd(Poly(), t + s + lam)


def sympy_gcd(A: Poly, B: Poly) -> Poly:
    """Reference: sympy's gcd, normalized like poly_gcd by primitive_rat."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(VARS)

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[g ** e for g, e in zip(gens, m)])
                    for m, c in p.terms.items()), sympy.Integer(0))

    g = sympy.Poly(sympy.gcd(to_sympy(A), to_sympy(B)), *gens)
    return primitive_rat(Poly({m: Rat(int(c.p), int(c.q))
                               for m, c in g.terms()}))[1]


# -- vector normalization --------------------------------------------------


def test_clear_and_normalize():
    v = [Rat(2, 3) * s * lam, Poly(), Rat(4, 5) * (s - 1) ** 2]
    out = clear_and_normalize(v)
    assert out == [5 * s * lam, Poly(), 6 * (s - 1) ** 2]
    # the normalized vector stays proportional to the input
    assert out[0] * v[2] == out[2] * v[0]
    with pytest.raises(ValueError):
        clear_and_normalize([Poly(), Poly()])
    with pytest.raises(ValueError):
        clear_and_normalize([t, s, lam])
    # a common factor is not divided out: the vector is refused
    with pytest.raises(ArithmeticError):
        clear_and_normalize([(s - 1) * s * lam, (s - 1) ** 2 * lam ** 2])
    # coprime, but both images at s = 1 and at l = 1 share a root: the
    # certificate goes on to the next point
    assert clear_and_normalize([s - lam, s + lam - 2]) == [s - lam,
                                                            s + lam - 2]


@pytest.mark.parametrize("factor", [lam + 2, s - 5, s * lam + 1, lam,
                                    (s - 1) * (lam - 1) + 1,
                                    Rat(2) * Poly.one()])
def test_clear_and_normalize_refuses_a_common_factor(factor):
    # a coprime vector is certified at the first point; times a common
    # factor in lambda only, in s only or in both it is refused, and a
    # constant factor is only content.  (s - 1)(l - 1) + 1 is 1 at s = 1
    # and at l = 1, where the first entry loses its leading coefficient in
    # the other variable: the certificate skips those points
    v = [s ** 3 * lam + 2 * lam ** 2 - 1, (s + lam) ** 2 + 3, s * lam - 4]
    assert clear_and_normalize(v) == v
    planted = [factor * p for p in v]
    if factor.is_const():
        assert clear_and_normalize(planted) == v
        return
    with pytest.raises(ArithmeticError, match="share a factor"):
        clear_and_normalize(planted)


def _euclid_spy(monkeypatch):
    """A list that records each run of Euclid's algorithm over Q, the
    route of `_certify_images` after the modular pre-check."""
    calls = []
    euclid = polyring._euclid_lists

    def spy(a, b):
        calls.append((a, b))
        return euclid(a, b)

    monkeypatch.setattr(polyring, "_euclid_lists", spy)
    return calls


def test_certificate_is_modular_first(monkeypatch):
    # a coprime vector of images coprime modulo 2^61 - 1 needs no Euclid
    # over Q at all
    calls = _euclid_spy(monkeypatch)
    v = [s ** 3 * lam + 2 * lam ** 2 - 1, (s + lam) ** 2 + 3, s * lam - 4]
    assert clear_and_normalize(v) == v
    assert calls == []


def test_certificate_falls_back_where_the_prime_sees_a_factor(monkeypatch):
    # s + l and s + l + p, p = 2^61 - 1, are coprime over Q but equal
    # modulo p: the pre-check cannot certify them, and Euclid over Q does
    p = polyring._PRIME
    calls = _euclid_spy(monkeypatch)
    v = [s + lam, s + lam + p]
    assert clear_and_normalize(v) == v
    assert calls
    # and a common factor that the prime sees stays refused
    with pytest.raises(ArithmeticError, match="share a factor"):
        clear_and_normalize([(s + lam) * (s + 2), (s + lam) * (s + 3 + p)])


def test_certificate_skips_the_pre_check_when_p_divides_the_lead(
        monkeypatch):
    # lc_s = p of the first entry vanishes modulo p, so modulo p its image
    # loses its degree in s: the pre-check is skipped and Euclid over Q
    # decides.  A coprime vector is certified; a common factor p s + 1,
    # which is 1 modulo p, is refused, where a pre-check run anyway would
    # have certified (s + 2, s + 3)
    p = polyring._PRIME
    calls = _euclid_spy(monkeypatch)
    v = [p * s + lam, s + 1]
    assert clear_and_normalize(v) == v
    assert calls
    with pytest.raises(ArithmeticError, match="share a factor"):
        clear_and_normalize([(p * s + 1) * (s + 2), (p * s + 1) * (s + 3)])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_clear_and_normalize_refuses_exactly_the_common_factors(seed):
    # against sympy's gcd: a vector of 2-4 entries in s and lambda, half of
    # them given a random common factor, is refused exactly when the gcd
    # of its entries is not constant
    rng = random.Random(seed)
    G = _random_poly(rng, nvars=2, deg=2, nterms=2, start=1)
    if rng.random() < 0.5:
        G = Poly.one()
    v = [G * _random_poly(rng, nvars=2, deg=3, nterms=rng.randrange(1, 4),
                          start=1)
         for _ in range(rng.randrange(2, 5))]
    if not any(v):
        return
    g = Poly()
    for p in v:
        g = sympy_gcd(g, p)
    if g.is_const():
        out = clear_and_normalize(v)
        # the same ray, on coprime integers
        k = next(i for i, p in enumerate(v) if p)
        assert all(o * v[k] == out[k] * p for o, p in zip(out, v))
        coeffs = [c for o in out for c in o.terms.values()]
        assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
    else:
        with pytest.raises(ArithmeticError):
            clear_and_normalize(v)


# -- sums of products and monomial divisors ---------------------------------


def _band_poly(n: int, width: int, draw) -> Poly:
    """n width-term l-rows along l ~ 1.4 s, as the tower's polynomials."""
    return Poly({(0, a, int(1.4 * a) + j, 0, 0, 0): draw()
                 for a in range(n) for j in range(width)})


def _packed_sum(pairs) -> tuple:
    """The sum of the products of pairs by `sums_of_products`, and whether
    it multiplied packed."""
    with mock.patch.object(polyring, "mul_packed",
                           wraps=polyring.mul_packed) as packed:
        P, = sums_of_products([pairs])
    return P, packed.called


def _plain_sum(pairs) -> Poly:
    return sum((A * B for A, B in pairs), Poly())


big = st.integers(-2 ** 100, 2 ** 100).filter(bool)


@given(st.lists(st.tuples(st.integers(1, 14), st.integers(1, 3),
                          st.integers(1, 14), st.integers(1, 3)),
                min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_sum_of_products_matches_the_plain_sum(shapes, data):
    pairs = [(_band_poly(n1, w1, lambda: data.draw(big)),
              _band_poly(n2, w2, lambda: data.draw(big)))
             for n1, w1, n2, w2 in shapes]
    P, packed = _packed_sum(pairs)
    assert P == _plain_sum(pairs)
    assert all(type(c) is int for c in P.terms.values())
    pairs_n = sum(len(A.terms) * len(B.terms) for A, B in pairs)
    assert packed == (pairs_n >= polyring.PACK_PAIRS)


def test_sum_of_products_packs_large_sums_and_cancels():
    A = _band_poly(30, 3, lambda: 2 ** 90 - 1)
    B = _band_poly(25, 2, lambda: -(2 ** 64) + 1)
    C = _band_poly(10, 1, lambda: 3)
    pairs = [(A, B), (C, A), (Poly(), B), (-B, A)]
    assert _packed_sum(pairs) == (C * A, True)
    assert _packed_sum([(A, B), (-A, B)]) == (Poly(), True)


def test_sum_of_products_falls_back():
    A = _band_poly(30, 3, lambda: 7)
    B = _band_poly(25, 2, lambda: -5)
    # a rational coefficient, or a term in a third variable: sum(A * B)
    for C in (B + Poly({(0, 1, 1, 0, 0, 0): Rat(1, 3)}), B + t):
        pairs = [(A, B), (A, C)]
        assert _packed_sum(pairs) == (_plain_sum(pairs), False)
        assert _packed_sum([(C, A)]) == (A * C, False)
    assert _packed_sum([]) == (Poly(), False)
    assert _packed_sum([(A, Poly())]) == (Poly(), False)


@pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                         ids=["integral", "rational"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_div_exact_by_a_monomial(coeffs, data):
    # exact: every exponent of the monomial is at most those of every term;
    # inexact otherwise, and then ArithmeticError as for any divisor
    A = data.draw(_polys(coeffs))
    m = data.draw(monos.filter(any))
    c = data.draw(coeffs)
    M = Poly({m: c})
    q = poly_div_exact(A * M, M)
    assert q == A
    _honours_contract(q)
    _agrees_with_naive(A, M)


def test_div_exact_by_a_monomial_examples():
    q = poly_div_exact(6 * s ** 3 * lam + Rat(3, 2) * s * lam ** 2,
                       Poly({(0, 1, 1, 0, 0, 0): 3}))
    assert q == 2 * s ** 2 + Rat(1, 2) * lam
    _honours_contract(q)
    assert poly_div_exact(s * lam + s * t, s) == lam + t
    assert all(type(c) is int for c in poly_div_exact(
        Poly({(0, 2, 0, 0, 0, 0): Rat(4)}), Poly({(0, 1, 0, 0, 0, 0): Rat(2)})
    ).terms.values())
    for A, M in ((s * lam + t, s), (s ** 2, s ** 3), (t * s, lam),
                 (Rat(1, 2) * s + lam * s, s * lam)):
        with pytest.raises(ArithmeticError):
            poly_div_exact(A, M)


def test_point_value_is_the_test_of_poly_div_exact():
    # the value of the primitive integer multiple at the point t = 2, s = 3,
    # l = 5, ...
    assert polyring.point_value(Rat(3, 2) * s + Rat(1, 2) * lam) == 14
    assert polyring.point_value(-4 * s * lam) == -15
    assert polyring.point_value(Poly()) == 0
