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
throughout.  A gcd is univariate, from a primitive remainder sequence on
integer coefficient lists.  A vector in two variables is not divided by a
gcd: `clear_and_normalize` certifies from such gcds of its univariate
images that its entries are coprime, or raises.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, chain, repeat
from math import gcd, lcm
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


def poly_gcd(A: Poly, B: Poly) -> Poly:
    """gcd of polynomials in at most one variable together, primitive with
    positive leading coefficient (for two constants, their rational gcd);
    two or more variables raise ValueError.

    Euclid's algorithm over Q, as the primitive remainder sequence on ints
    of `_euclid_lists`."""
    pv = A.vars_present() | B.vars_present()
    if len(pv) > 1:
        raise ValueError("poly_gcd takes one variable, got "
                         + ", ".join(VARS[i] for i in sorted(pv)))
    if not (A and B):
        return primitive_rat(A + B)[1]
    if not pv:
        return Poly.const(rat_gcd(A.const_value(), B.const_value()))
    i, = pv
    g = _euclid_lists(_univar_coeffs(A, i), _univar_coeffs(B, i))
    return primitive_rat(Poly({tuple(e if j == i else 0
                                     for j in range(NVARS)): c
                               for e, c in enumerate(g) if c}))[1]


def _image(A: Poly, v: int, w: int, a: int) -> list:
    """The coefficient list in v of A at w = a, of length deg_v A + 1."""
    out = [0] * (A.degree(v) + 1)
    for m, c in A.terms.items():
        out[m[v]] += c * a ** m[w]
    return out


def _certify_images(polys: list, v: int, w: int) -> None:
    """Certify that the nonzero polys share no factor of positive degree in
    v, from their images at w = a for a = 1, 2, ... up to a bound; raise
    ArithmeticError if no point certifies it.

    Soundness: let A be the first entry.  At a point a where lc_v(A) does
    not vanish, a common factor of positive v-degree keeps its v-degree,
    since its leading coefficient in v divides lc_v(A).  So it divides
    every image, and images with a constant gcd exclude it.

    The bound: if no such factor exists, some integer combination B of the
    other entries has none in common with A either (each of A's finitely
    many prime factors of positive v-degree divides the combinations of a
    proper subspace only).  Then the Sylvester resultant Res_v(A, B) is a
    nonzero polynomial in w of degree at most deg_v A * D_w + D_v * deg_w A,
    D the largest degrees of the entries.  At a point a where neither
    lc_v(A) nor that resultant vanishes, A(a) and B(a) are coprime, and so
    are the images (if deg_v A = 0, A(a) is a nonzero constant).  At most
    deg_w lc_v(A) plus that degree points fail, so one point past them
    certifies.  The images are built lazily, entry by entry, and a point
    stops at the first constant running gcd."""
    A = polys[0]
    top = A.degree(v)
    bound = (max(m[w] for m in A.terms if m[v] == top)
             + top * max(p.degree(w) for p in polys)
             + max(p.degree(v) for p in polys) * A.degree(w))
    for a in range(1, bound + 2):
        images = (_image(p, v, w, a) for p in polys)
        first = next(images)
        if first[-1] and any(len(g) == 1 for g in accumulate(
                chain([first], images), _euclid_lists)):
            return
    raise ArithmeticError(
        f"the entries share a factor in {VARS[v]}: their images at "
        f"{VARS[w]} = 1..{bound + 1} keep a common factor")


def clear_and_normalize(polys: list) -> list:
    """Scale a nonzero vector of polynomials in at most two variables to
    coprime integer entries.

    Divides by the common rational content and certifies that the entries
    have no common polynomial factor: for each of the two variables,
    univariate images with a constant gcd (`_certify_images`) exclude a
    common factor of positive degree in it, and a nonconstant factor has
    positive degree in one of them.  A vector that is not certified raises
    ArithmeticError; the zero vector and more than two variables raise
    ValueError.  The global sign is left to the caller.
    """
    if not any(polys):
        raise ValueError("cannot normalize the zero vector")
    pv = set().union(*map(Poly.vars_present, polys))
    if len(pv) > 2:
        raise ValueError("clear_and_normalize takes two variables, got "
                         + ", ".join(VARS[i] for i in sorted(pv)))
    c = ZERO
    for p in polys:
        c = rat_gcd(c, rat_content(p))
    polys = [p.scale(ONE / c) for p in polys]
    nonzero = [p for p in polys if p]
    v, w = (sorted(pv) + [i for i in range(NVARS) if i not in pv])[:2]
    _certify_images(nonzero, v, w)
    _certify_images(nonzero, w, v)
    return polys


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
