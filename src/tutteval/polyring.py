"""Sparse multivariate polynomials over exact rationals: arithmetic, exact
division, gcds and the normalization of polynomial vectors.

A coefficient is an exact rational held as an `int` when it is integral and
as a `Fraction` otherwise.  Products, exact quotients and scalings store
every integral coefficient they make as an `int`, since most polynomials
here are integral and `int` arithmetic is several times faster; an integral
`Fraction` given from outside is still the same number, with the same
`==`, hash and text.  A product clears both denominators first, so the
kernels of `_kernels_py` only ever see maps to `int`s.

The variable set is fixed and ordered: t < s < l < f < x < y (l is the
curvature parameter, f the algebraic auxiliary variable).  Monomials are
exponent 6-tuples; the canonical term order is graded lexicographic on that
variable order, which also fixes the text that `poly_to_str` writes.  No
parser reads that text back: polynomials are built from `Poly.var`,
`Poly.const` and arithmetic.

Everything here is immutable and pure.  Division and gcd are exact
throughout.  A gcd involves at most two variables: univariate ones come from
a primitive remainder sequence on integer coefficient lists, bivariate ones
from Brown's evaluation and interpolation of such univariate images.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, chain, repeat
from math import gcd, lcm, prod
from operator import gt, mul, sub

from ._kernels_py import (PACK_PAIRS, field_struct, mul_packed, mul_poly,
                          two_variables)
from .exactnum import ONE, Rat, ZERO, rat_gcd

VARS = ("t", "s", "l", "f", "x", "y")
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZMONO = (0,) * NVARS


def _vi(v) -> int:
    return v if isinstance(v, int) else VAR_INDEX[v]


def _grlex_key(mono):
    return (sum(mono), mono)


def _int_terms(terms: dict) -> tuple:
    """(d, {mono: int}) with terms = {mono: int} / d, d > 0 the least common
    denominator of the coefficients.  A map of ints is returned itself."""
    if set(map(type, terms.values())) <= {int}:
        return 1, terms
    d = lcm(*[c.denominator for c in terms.values()])
    if d == 1:
        return 1, {m: c.numerator for m, c in terms.items()}
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def _primitive_ints(terms: dict) -> tuple:
    """(c, {mono: int}) with terms = c * {mono: int}, c > 0 rational and the
    integers coprime."""
    d, ints = _int_terms(terms)
    g = gcd(*ints.values())
    if g != 1:
        ints = {m: v // g for m, v in ints.items()}
    return Rat(g, d), ints


def _ratio(x: int, n: int):
    """x / n for ints, as an int when n divides x."""
    q, r = divmod(x, n)
    return Rat(x, n) if r else q


def _divide_terms(ints: dict, d: int) -> dict:
    """{key: c / d} for a map to ints and an int d > 0, with every integral
    quotient stored as an int."""
    return ints if d == 1 else {k: _ratio(c, d) for k, c in ints.items()}


def _power(x, n: int):
    """x^n by repeated squaring: the __pow__ of `Poly` and of the truncated
    series.  A negative n is refused, since nothing here is inverted."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    result = x.scale(0) + 1
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


class Poly:
    """Sparse polynomial: dict from exponent 6-tuple to nonzero exact
    coefficient, an int when integral and otherwise a Rat."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(q) -> "Poly":
        return Poly({_ZMONO: q} if q else {})

    @staticmethod
    def var(v, exp: int = 1) -> "Poly":
        i = _vi(v)
        mono = tuple(exp if j == i else 0 for j in range(NVARS))
        return Poly({mono: 1})

    @staticmethod
    def one() -> "Poly":
        return Poly.const(1)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZMONO in self.terms)

    def const_value(self):
        return self.terms.get(_ZMONO, ZERO)

    def vars_present(self):
        present = [False] * NVARS
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    present[i] = True
        return {i for i in range(NVARS) if present[i]}

    def degree(self, v) -> int:
        """Degree in variable v; -1 for 0."""
        if not self.terms:
            return -1
        i = _vi(v)
        return max(m[i] for m in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self):
        if not self.terms:
            return ZERO
        return self.terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v = v + c
                if v:
                    out[m] = v
                else:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(ONE))):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        # multiply on ints, which run several times faster than rationals,
        # and divide by both common denominators at the end
        da, a = _int_terms(self.terms)
        db, b = _int_terms(other.terms)
        p = Poly.__new__(Poly)
        p.terms = _divide_terms(mul_poly(a, b), da * db)
        return p

    __rmul__ = __mul__

    def scale(self, q) -> "Poly":
        if not q:
            return Poly()
        # on ints over one common denominator, like a product
        d, ints = _int_terms(self.terms)
        n = q.numerator
        p = Poly.__new__(Poly)
        p.terms = _divide_terms({m: c * n for m, c in ints.items()},
                                d * q.denominator)
        return p

    __pow__ = _power

    # -- univariate views --------------------------------------------------

    def as_univar(self, v) -> list["Poly"]:
        """Coefficient list [c0, c1, ...] of this polynomial viewed in v."""
        i = _vi(v)
        d = self.degree(i)
        coeffs = [dict() for _ in range(d + 1)] if d >= 0 else []
        for m, c in self.terms.items():
            rest = m[:i] + (0,) + m[i + 1:]
            coeffs[m[i]][rest] = c
        return [Poly(d) for d in coeffs]

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r})"

    def __str__(self):
        return poly_to_str(self)


def sum_of_products(pairs) -> Poly:
    """sum A B over the pairs (A, B) of polynomials.

    When every coefficient is an int, the terms use at most two variables
    and the pairs make at least `PACK_PAIRS` term products, the sum is one
    packed int product per pair on one sheared box, decoded once
    (`mul_packed`); otherwise it is sum(A * B), whose products clear their
    denominators themselves."""
    pairs = [(A, B) for A, B in pairs if A and B]
    maps = [(A.terms, B.terms) for A, B in pairs]
    ops = [x for pair in maps for x in pair]
    coeffs = chain.from_iterable(map(dict.values, ops))
    if (sum(len(a) * len(b) for a, b in maps) >= PACK_PAIRS
            and set(map(type, coeffs)) == {int}):
        uv = two_variables(ops)
        if uv:
            p = Poly.__new__(Poly)
            p.terms = mul_packed(maps, *uv)
            return p
    return sum((A * B for A, B in pairs), Poly())


# -- calculus ---------------------------------------------------------------


def partial_derivative(A: Poly, v) -> Poly:
    """Formal partial derivative."""
    i = _vi(v)
    out = {}
    for m, c in A.terms.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
    return Poly(out)


# -- exact division, content, gcd ------------------------------------------


# the integer point at which `poly_div_exact` compares both sides
_POINT = (2, 3, 5, 7, 11, 13)


def _value_at_point(terms: dict, point: tuple = _POINT):
    """The value at `point` of the polynomial {mono: coefficient}."""
    weights = None
    for x, col in zip(point, zip(*terms)):
        top = max(col)
        if top:
            pows = list(accumulate(repeat(x, top), mul, initial=1))
            w = map(pows.__getitem__, col)
            weights = w if weights is None else map(mul, weights, w)
    vals = terms.values()
    return sum(vals) if weights is None else sum(map(mul, vals, weights))


def point_value(A: Poly) -> int:
    """A'(x) at the point x = `_POINT`, for A = c A' with A' a primitive
    integer polynomial and c > 0 rational.  If a polynomial B divides A,
    then B'(x) divides A'(x) (Gauss's lemma): the test that
    `poly_div_exact` makes first."""
    return _value_at_point(_primitive_ints(A.terms)[1]) if A.terms else 0


def poly_div_exact(A: Poly, B: Poly) -> Poly:
    """Exact quotient A/B; raises ArithmeticError if B does not divide A.

    With A = a A' and B = b B', A' and B' primitive integer polynomials, B'
    divides A' over Q exactly when it divides it over Z (Gauss's lemma), so
    A'/B' is computed on ints and a leading coefficient that lc(B') does not
    divide proves the division inexact.  Before that, B'(x) not dividing
    A'(x) at one integer point x proves it too.  The quotient is
    (a/b) A'/B'.

    Monomials are packed into ints whose order is the graded lex order: the
    top field holds the total degree, the next ones variables 0, 1, ...
    The top bit of every field is a guard bit above its value, so
    subtracting a packed monomial never borrows across fields, and a cleared
    guard bit shows that one monomial does not divide the other."""
    if B.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if A.is_zero():
        return Poly()
    if B.is_const():
        return A.scale(ONE / B.const_value())
    if len(B.terms) == 1:
        # a monomial divides A when its exponents are at most those of
        # every term of A: a shift, then a scaling
        (mb, cb), = B.terms.items()
        if any(map(gt, mb, map(min, zip(*A.terms)))):
            raise ArithmeticError("inexact polynomial division")
        p = Poly.__new__(Poly)
        p.terms = {tuple(map(sub, m, mb)): c for m, c in A.terms.items()}
        if cb == 1 and set(map(type, p.terms.values())) <= {int}:
            return p
        return p.scale(ONE / cb)
    # fields sized for A's total degree also hold every monomial of B, of
    # the quotient and of the remainders, unless B's degree is higher,
    # and then B cannot divide A
    deg = max(map(sum, A.terms))
    if max(map(sum, B.terms)) > deg:
        raise ArithmeticError("inexact polynomial division")
    a, ia = _primitive_ints(A.terms)
    b, ib = _primitive_ints(B.terms)
    # B' | A' makes A'/B' an integer polynomial, so B'(x) | A'(x) at every
    # integer point x: one evaluation rejects most inexact divisions
    bx = abs(_value_at_point(ib))
    if bx and _value_at_point(ia) % bx:
        raise ArithmeticError("inexact polynomial division")
    layout = field_struct(NVARS + 1, deg.bit_length() + 1)
    top = 1 << (8 * layout.size // (NVARS + 1) - 1)
    pack, from_bytes = layout.pack, int.from_bytes
    guard = from_bytes(pack(*[top] * (NVARS + 1)), "big")
    bterms = sorted((from_bytes(pack(sum(m), *m), "big"), c)
                    for m, c in ib.items())
    lmB, lcB = bterms.pop()
    rem = {from_bytes(pack(sum(m), *m), "big"): c for m, c in ia.items()}
    # monomials in descending order via a min-heap of negated keys
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, None)
        if c is None:
            continue
        d = (k | guard) - lmB
        if d & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        q, r = divmod(c, lcB)
        if r:
            raise ArithmeticError("inexact polynomial division")
        d ^= guard
        quo[d] = q
        for mB, cB in bterms:
            m = d + mB
            prev = rem.get(m)
            if prev is None:
                rem[m] = -q * cB
                heapq.heappush(heap, -m)
            else:
                new = prev - q * cB
                if new:
                    rem[m] = new
                else:
                    del rem[m]
    r = a / b
    rn, rd = r.numerator, r.denominator
    unpack, size = layout.unpack, layout.size
    p = Poly.__new__(Poly)
    p.terms = _divide_terms({unpack(d.to_bytes(size, "big"))[1:]: q * rn
                             for d, q in quo.items()}, rd)
    return p


def rat_content(A: Poly):
    """Positive rational c with A/c having coprime integer coefficients;
    0 for the zero polynomial."""
    return _primitive_ints(A.terms)[0]


def primitive_rat(A: Poly):
    """(c, P) with A = c*P, P integer-coprime with positive leading coeff."""
    if A.is_zero():
        return ONE, A
    c = rat_content(A)
    if A.leading_coeff() < 0:
        c = -c
    return c, A.scale(ONE / c)


def _primitive_list(a: list) -> list:
    """A rational (or integer) coefficient list as coprime integers, trailing
    zeros dropped: the same polynomial up to a nonzero rational factor."""
    d = lcm(*[x.denominator for x in a])
    a = [x.numerator * (d // x.denominator) for x in a]
    while a and not a[-1]:
        a.pop()
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _pprem(a: list, b: list) -> list:
    """Primitive part of the pseudo-remainder of a by b, integer coefficient
    lists with len(a) >= len(b).  Each step scales a by lc(b)/g only, with
    g = gcd(lc(a), lc(b))."""
    a = a[:]
    db = len(b) - 1
    lcb = b[-1]
    while len(a) > db:
        lca = a.pop()
        if lca:
            g = gcd(lca, lcb)
            sa, sb = lcb // g, lca // g
            if sa != 1:
                a = [sa * x for x in a]
            shift = len(a) - db
            for j in range(db):
                a[shift + j] -= sb * b[j]
    return _primitive_list(a)


def _euclid_lists(a: list, b: list) -> list:
    """Monic gcd of univariate rational coefficient lists.

    Denominators are cleared and a primitive remainder sequence runs on
    ints; its last nonzero remainder, made monic, is the monic gcd that
    Euclid's algorithm over Q gives."""
    a, b = _primitive_list(a), _primitive_list(b)
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return []
    while b:
        if len(b) == 1:
            return [ONE]
        a, b = b, _pprem(a, b)
    lc = a[-1]
    return [Rat(x, lc) for x in a]


def _univar_coeffs(A: Poly, v) -> list:
    i = _vi(v)
    out = [0] * (A.degree(v) + 1)
    for m, c in A.terms.items():
        out[m[i]] = c
    return out


def _gcd_univar(A: Poly, B: Poly, v) -> Poly:
    """gcd of polynomials involving only variable v, primitive with
    positive leading coefficient."""
    if A.is_zero():
        return primitive_rat(B)[1] if not B.is_zero() else Poly()
    if B.is_zero():
        return primitive_rat(A)[1]
    g = _euclid_lists(_univar_coeffs(A, v), _univar_coeffs(B, v))
    i = _vi(v)
    return primitive_rat(Poly({tuple(e if j == i else 0
                                     for j in range(NVARS)): c
                               for e, c in enumerate(g) if c}))[1]


def _interpolate(xs: list, columns: list) -> list:
    """Coefficient lists of the polynomials through the points (xs[i], ys[i]),
    one for each value list ys in columns; xs are distinct integers.

    Lagrange's formula on ints, shared by every column: with
    N_j = prod_{i != j} (x - xs[i]), w_j = N_j(xs[j]) and L = lcm(w_j), the
    polynomial through integer values Y is sum_j Y_j (L / w_j) N_j / L.  A
    column of rationals is first written as integers Y over a denominator D.
    """
    n = len(xs)
    master = [1]  # prod (x - xs[i]), ascending coefficients
    for x in xs:
        master = [0] + master
        for k in range(len(master) - 1):
            master[k] -= x * master[k + 1]
    ws = [prod(xj - xi for xi in xs if xi != xj) for xj in xs]
    L = lcm(*ws)
    basis = []
    for xj, w in zip(xs, ws):
        N = [0] * n  # master / (x - xj) by synthetic division
        N[-1] = master[n]
        for k in range(n - 1, 0, -1):
            N[k - 1] = master[k] + xj * N[k]
        basis.append([(L // w) * c for c in N])
    out = []
    for ys in columns:
        D = lcm(*[y.denominator for y in ys])
        acc = [0] * n
        for y, row in zip(ys, basis):
            yj = y.numerator * (D // y.denominator)
            if yj:
                acc = [a + yj * c for a, c in zip(acc, row)]
        while acc and not acc[-1]:
            acc.pop()
        out.append([Rat(c, L * D) for c in acc])
    return out


def _int_rows(A: Poly, vm, ve) -> list:
    """A polynomial in vm and ve times a positive integer, as the list over
    the vm-degree of its integer coefficient lists in ve."""
    ivm, ive = _vi(vm), _vi(ve)
    width = A.degree(ive) + 1
    rows = [[0] * width for _ in range(A.degree(ivm) + 1)]
    for m, c in _int_terms(A.terms)[1].items():
        rows[m[ivm]][m[ive]] = c
    return rows


def _horner(coeffs: list, a):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def _poly_gcd_bivar(A: Poly, B: Poly, vm: int, ve: int) -> Poly:
    """gcd of polynomials in exactly the two variables vm, ve by evaluation
    at ve = 0, 1, 2, ... and interpolation of the univariate gcd images
    (Brown's method over the rationals, W. S. Brown, J. ACM 18(4), 1971),
    each image a univariate gcd on integer coefficient lists.

    The interpolant H of the images of least degree has the vm-degree of
    those images, which no gcd of the inputs exceeds.  So once H divides
    both primitive parts it is their gcd, however few points it came from:
    the points start at two more than the degree of the leading-coefficient
    gcd and double toward Brown's bound only while that trial fails."""
    ua, ub = A.as_univar(vm), B.as_univar(vm)
    ca = Poly()
    for c in ua:
        ca = _gcd_univar(ca, c, ve)
    cb = Poly()
    for c in ub:
        cb = _gcd_univar(cb, c, ve)
    cont = _gcd_univar(ca, cb, ve)
    pa = poly_div_exact(A, ca) if ca != Poly.one() else A
    pb = poly_div_exact(B, cb) if cb != Poly.one() else B
    gamma = _gcd_univar(pa.as_univar(vm)[-1], pb.as_univar(vm)[-1], ve)
    gamma_c = _univar_coeffs(gamma, ve)
    # the images are taken of integer multiples of pa and pb, which have the
    # same monic gcd at every point
    rows_a, rows_b = _int_rows(pa, vm, ve), _int_rows(pb, vm, ve)

    # Brown's bound on the points the gcd can need; the points already
    # taken are kept when the target grows
    bound = gamma.degree(ve) + min(pa.degree(ve), pb.degree(ve)) + 1
    target = min(bound, gamma.degree(ve) + 2)
    xs = []
    images = []
    dmin = None
    a = 0
    while True:
        while len(xs) < target:
            if not _horner(rows_a[-1], a) or not _horner(rows_b[-1], a):
                a += 1
                continue
            g = _euclid_lists([_horner(r, a) for r in rows_a],
                              [_horner(r, a) for r in rows_b])
            d = len(g) - 1
            if d == 0:
                return primitive_rat(cont)[1]
            if dmin is None or d < dmin:
                dmin = d
                xs, images = [], []
            if d == dmin:
                ga = _horner(gamma_c, a)
                xs.append(a)
                images.append([c * ga for c in g])
            a += 1
        ivm, ive = _vi(vm), _vi(ve)
        terms = {}
        col_polys = []
        columns = _interpolate(xs, [[img[k] for img in images]
                                    for k in range(dmin + 1)])
        for k, coeffs in enumerate(columns):
            col = {}
            for e, c in enumerate(coeffs):
                if c:
                    mono = [0] * NVARS
                    mono[ive] = e
                    col[tuple(mono)] = c  # ve part only, for the content gcd
                    mono[ivm] = k
                    terms[tuple(mono)] = c
            col_polys.append(Poly(col))
        H = Poly(terms)
        ch = Poly()
        for col in col_polys:
            ch = _gcd_univar(ch, col, ve)
        if not (ch.is_const() and ch.const_value() == ONE):
            H = poly_div_exact(H, ch)
        H = primitive_rat(H)[1]
        try:
            poly_div_exact(pa, H)
            poly_div_exact(pb, H)
        except ArithmeticError:
            target = min(2 * target, bound) if target < bound else target + 8
            continue
        return primitive_rat(H * cont)[1]


def poly_gcd(A: Poly, B: Poly) -> Poly:
    """gcd of polynomials in at most two variables together, primitive with
    positive leading coefficient (for two constants, their rational gcd).

    One variable goes through `_gcd_univar`, two through `_poly_gcd_bivar`;
    more than two raise ValueError.
    """
    pv = A.vars_present() | B.vars_present()
    if len(pv) > 2:
        raise ValueError("poly_gcd supports at most two variables, got "
                         + ", ".join(VARS[i] for i in sorted(pv)))
    if A.is_zero():
        return primitive_rat(B)[1] if not B.is_zero() else Poly()
    if B.is_zero():
        return primitive_rat(A)[1]
    if not pv:
        return Poly.const(rat_gcd(A.const_value(), B.const_value()))
    if len(pv) == 1:
        return _gcd_univar(A, B, pv.pop())
    v1, v2 = sorted(pv)
    # evaluate the variable of smaller degree: fewer sample points
    d1 = max(A.degree(v1), B.degree(v1))
    d2 = max(A.degree(v2), B.degree(v2))
    vm, ve = (v2, v1) if d1 <= d2 else (v1, v2)
    return _poly_gcd_bivar(A, B, vm, ve)


def strip_gcd(g: Poly, polys: list) -> list:
    """The entries divided by gcd(g, entries).  The gcd grows over the
    nonzero entries in order and stops as soon as it divides every entry,
    as a constant does: the gcd of a prefix that divides them all is the
    gcd of them all."""
    for p in polys:
        if p.is_zero():
            continue
        g = poly_gcd(g, p)
        try:
            return [poly_div_exact(q, g) if not q.is_zero() else q
                    for q in polys]
        except ArithmeticError:
            continue
    return polys


def clear_and_normalize(polys: list) -> list:
    """Scale a nonzero polynomial vector to coprime integer entries.

    Divides by the common polynomial factor, the gcd of the first entries
    as soon as it divides all of them, and by the common rational content.
    The global sign is left to the caller.
    """
    if all(p.is_zero() for p in polys):
        raise ValueError("cannot normalize the zero vector")
    polys = strip_gcd(Poly(), polys)
    c = ZERO
    for p in polys:
        c = rat_gcd(c, rat_content(p))
    return [p.scale(ONE / c) for p in polys]


# -- text serialization ----------------------------------------------------


def poly_to_str(A: Poly) -> str:
    """Canonical text form: terms in descending graded-lex order."""
    if A.is_zero():
        return "0"
    parts = []
    for m in sorted(A.terms, key=_grlex_key, reverse=True):
        c = A.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(VARS[i])
            elif e > 1:
                factors.append(f"{VARS[i]}^{e}")
        mag = c if c > 0 else -c
        if factors and mag == ONE:
            body = "*".join(factors)
        elif factors:
            body = str(mag) + "*" + "*".join(factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
