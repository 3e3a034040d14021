"""Sparse multivariate polynomials over exact rationals: arithmetic, exact
division, gcds and the normalization of polynomial vectors.

A coefficient is an exact rational held as an `int` when it is integral and
as a `Fraction` otherwise.  Products, exact quotients and scalings store
every integral coefficient they make as an `int`, since most polynomials
here are integral and `int` arithmetic is several times faster; an integral
`Fraction` given from outside is still the same number, with the same
`==`, hash and text.  A product clears both denominators first, so the
kernels of `_kernels_py` only ever see maps to `int`s.  Only
`sums_of_products` packs (`mul_packed`), a large sum of products at once.

The variable set is fixed and ordered: t < s < l < f < x < y (l is the
curvature parameter, f the algebraic auxiliary variable).  Monomials are
exponent 6-tuples; the canonical term order is graded lexicographic on that
variable order, which also fixes the text that `poly_to_str` writes.  No
parser reads that text back: polynomials are built from `Poly.var`,
`Poly.const` and arithmetic.

Everything here is immutable and pure.  Division and gcd are exact
throughout.  Exact division long-divides on ints over one flat mixed-radix
index of the dividend's exponent box, the index of `mul_poly`: the
division in one variable that this gives is the true one when no cell
below the divisor's lead is left and every quotient digit leaves room for
the divisor's exponents, so that no index carried (`poly_div_exact`).  A
gcd is univariate, from a primitive remainder sequence on integer
coefficient lists.  A vector in two variables is not divided by a gcd:
`clear_and_normalize` certifies from such gcds of its univariate images
that its entries are coprime, or raises; a gcd modulo the prime 2^61 - 1
certifies most images before the gcd over Q is needed.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import gt, mul, sub

from ._kernels_py import mul_packed, mul_poly, two_variables
from .exactnum import ONE, Rat, ZERO, rat_gcd

VARS = ("t", "s", "l", "f", "x", "y")
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZMONO = (0,) * NVARS
# the least number of term products at which `sums_of_products` packs a
# sum; `verify all`'s largest two-variable `mul_poly` call makes 1,905
PACK_PAIRS = 2000


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
    def var(v) -> "Poly":
        i = _vi(v)
        mono = tuple(1 if j == i else 0 for j in range(NVARS))
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


def sums_of_products(sums) -> list:
    """[sum A B over the pairs (A, B)] for each list of pairs of
    polynomials in `sums`.

    A sum whose coefficients are all ints and whose pairs make at least
    `PACK_PAIRS` term products is one packed int product per pair on one
    sheared box, decoded once (`mul_packed`); such sums go to one
    `mul_packed` call together when their terms use at most two variables
    in all, so an operand that several pairs share is packed once.  Every
    other sum is sum(A * B), whose products clear their denominators
    themselves."""
    sums = [[(A, B) for A, B in pairs if A and B] for pairs in sums]
    ops = {id(X): X.terms for pairs in sums for pair in pairs for X in pair}
    ints = {k for k, terms in ops.items()
            if set(map(type, terms.values())) == {int}}
    big = [j for j, pairs in enumerate(sums)
           if sum(len(A.terms) * len(B.terms) for A, B in pairs) >= PACK_PAIRS
           and all(id(X) in ints for pair in pairs for X in pair)]
    out = [None] * len(sums)
    uv = None
    if big:
        keys = {id(X) for j in big for pair in sums[j] for X in pair}
        uv = two_variables([ops[k] for k in keys])
    if uv:
        maps = [[(A.terms, B.terms) for A, B in sums[j]] for j in big]
        for j, terms in zip(big, mul_packed(maps, *uv)):
            out[j] = Poly.__new__(Poly)
            out[j].terms = terms
    return [P if P is not None else sum((A * B for A, B in pairs), Poly())
            for P, pairs in zip(out, sums)]


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


def _value_at_point(terms: dict):
    """The value at `_POINT` of the polynomial {mono: coefficient}."""
    weights = None
    for x, col in zip(_POINT, zip(*terms)):
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

    Each exponent tuple is read as one mixed-radix index over A's exponent
    box, ext_i = max_A e_i + 1, in lex order, as in `mul_poly`; call it
    K(e).  The long division runs on those indices from A's top cell down:
    each nonzero cell c at or above K(lead B) gives the quotient digit
    c / lc(B) at c - K(lead B), or raises, and subtracts that digit times B
    at fixed index offsets.  Then A_K = Q_K B_K as polynomials in one
    variable exactly when no cell below K(lead B) is left.  That is not yet
    A = QB, since an index may carry into the next digit: for
    (s l^3 + s^3)/(l + 1), whose values at the point are 402 and 6, the
    cells reduce to zero with a quotient digit l^3.  But if every quotient
    index leaves room for B's exponents, digit_i(Q) <= max_A e_i - max_B e_i,
    then no sum of a quotient and a B exponent carries, so K(QB) = Q_K B_K =
    A_K, and as K is injective on the box, QB = A.  Conversely a true
    quotient has those digits, and the division in one variable finds it.
    So the division is exact exactly when both checks pass.

    The cells go into a flat list over the indices up to A's top when it
    has no more than len(A)^2 cells.  A dict keyed by the same index has to
    search its cells, about len(A) of them, for the top one at each of the
    quotient's digits, about len(A) of them when B is small: the flat walk
    costs no more than that.  A sparse A with a larger box takes the dict,
    and never allocates the box."""
    if B.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if A.is_zero():
        return Poly()
    if len(B.terms) == 1:
        # a monomial, a constant too, divides A when its exponents are at
        # most those of every term of A: a shift, then a scaling
        (mb, cb), = B.terms.items()
        if any(map(gt, mb, map(min, zip(*A.terms)))):
            raise ArithmeticError("inexact polynomial division")
        p = Poly.__new__(Poly)
        p.terms = {tuple(map(sub, m, mb)): c for m, c in A.terms.items()}
        if cb == 1 and set(map(type, p.terms.values())) <= {int}:
            return p
        return p.scale(ONE / cb)
    # B's degree in each variable is at most A's, or B cannot divide A
    tops = list(map(max, zip(*A.terms)))
    room = list(map(sub, tops, map(max, zip(*B.terms))))
    if min(room) < 0:
        raise ArithmeticError("inexact polynomial division")
    a, ia = _primitive_ints(A.terms)
    b, ib = _primitive_ints(B.terms)
    # B' | A' makes A'/B' an integer polynomial, so B'(x) | A'(x) at every
    # integer point x: one evaluation rejects most inexact divisions
    bx = abs(_value_at_point(ib))
    if bx and _value_at_point(ia) % bx:
        raise ArithmeticError("inexact polynomial division")
    w = [1] * NVARS  # w[i] = ext[i+1] * ... * ext[-1], lex order
    for i in range(NVARS - 1, 0, -1):
        w[i - 1] = w[i] * (tops[i] + 1)
    aitems = [(sum(map(mul, e, w)), c) for e, c in ia.items()]
    bitems = sorted((sum(map(mul, e, w)), c) for e, c in ib.items())
    kB, lcB = bitems.pop()
    offsets = [(k - kB, c) for k, c in bitems]
    quo = _long_division(aitems, kB, lcB, offsets)
    # the quotient's digits, one variable at a time, each within its room
    keys = [d for d, _ in quo]
    zeros = [0] * len(keys)
    cols = []
    for wi, top, r in zip(w, tops, room):
        col = [d // wi % (top + 1) for d in keys] if top else zeros
        if col and max(col) > r:
            raise ArithmeticError("inexact polynomial division")
        cols.append(col)
    q = a / b
    qn = q.numerator
    p = Poly.__new__(Poly)
    p.terms = _divide_terms(dict(zip(zip(*cols), [c * qn for _, c in quo])),
                            q.denominator)
    return p


def _long_division(aitems: list, kB: int, lcB: int, offsets: list) -> list:
    """[(d, q)]: the quotient digits q at the indices d, from the top down,
    of the cells {k: c} of `aitems` divided in one variable by lcB at kB
    plus the cells c at kB + off of `offsets`; raises ArithmeticError when a
    digit is not an int or a cell below kB is left (see `poly_div_exact`).
    """
    top = max(k for k, _ in aitems)
    quo = []
    if top < len(aitems) ** 2:
        acc = [0] * (top + 1)
        for k, c in aitems:
            acc[k] = c
        for k in range(top, kB - 1, -1):
            c = acc[k]
            if c:
                q, r = divmod(c, lcB)
                if r:
                    raise ArithmeticError("inexact polynomial division")
                quo.append((k - kB, q))
                for off, cb in offsets:
                    acc[k + off] -= q * cb
        if any(acc[:kB]):
            raise ArithmeticError("inexact polynomial division")
        return quo
    rem = dict(aitems)
    get = rem.get
    while rem:
        k = max(rem)
        if k < kB:
            raise ArithmeticError("inexact polynomial division")
        q, r = divmod(rem.pop(k), lcB)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo.append((k - kB, q))
        for off, cb in offsets:
            j = k + off
            v = get(j, 0) - q * cb
            if v:
                rem[j] = v
            else:
                del rem[j]
    return quo


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


# the prime of the modular pre-check of `_certify_images`, 2^61 - 1
_PRIME = (1 << 61) - 1


def _gcd_mod(a: list, b: list) -> list:
    """A gcd modulo `_PRIME` of two coefficient lists of residues with no
    trailing zeros, by Euclid's algorithm; [] when both are empty."""
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], -1, _PRIME)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % _PRIME
            shift = len(a) - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - f * b[j]) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _residues(image: list) -> list:
    """An integer coefficient list modulo `_PRIME`, trailing zeros
    dropped."""
    out = [x % _PRIME for x in image]
    while out and not out[-1]:
        out.pop()
    return out


def _coprime_mod(first: list, rest, seen: list) -> bool:
    """Whether the running gcd modulo `_PRIME` of the integer images
    `first` and `rest` reaches a constant; each image read from the
    iterator rest is appended to seen, and the reading stops there."""
    g = _residues(first)
    for image in rest:
        seen.append(image)
        g = _gcd_mod(g, _residues(image))
        if len(g) == 1:
            return True
    return False


def _certify_images(polys: list, v: int, w: int) -> None:
    """Certify that the nonzero integer polys share no factor of positive
    degree in v, from their images at w = a for a = 1, 2, ... up to a
    bound; raise ArithmeticError if no point certifies it.

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
    stops at the first constant running gcd.

    The modular pre-check: at each point, the running gcd of the images
    modulo the prime p = 2^61 - 1 is taken first, when p does not divide
    the leading coefficient of A's image.  A constant one certifies the
    point: a common factor of the images over Q is, as a primitive integer
    polynomial g, a factor over Z of each image (Gauss's lemma), and its
    leading coefficient divides that of A's image, so p does not divide
    it.  Then g modulo p has the same positive degree and divides every
    image modulo p, and their gcd modulo p is not constant.  A point the
    pre-check does not certify goes to Euclid's algorithm over Q
    (`_euclid_lists`) on the same images, which decides it as before; so
    the bound above still holds."""
    A = polys[0]
    top = A.degree(v)
    bound = (max(m[w] for m in A.terms if m[v] == top)
             + top * max(p.degree(w) for p in polys)
             + max(p.degree(v) for p in polys) * A.degree(w))
    for a in range(1, bound + 2):
        images = (_image(p, v, w, a) for p in polys)
        first = next(images)
        if not first[-1]:
            continue
        seen = [first]
        if first[-1] % _PRIME and _coprime_mod(first, images, seen):
            return
        if any(len(g) == 1 for g in accumulate(chain(seen, images),
                                               _euclid_lists)):
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
