"""Sparse multivariate polynomials over exact rationals: arithmetic, exact
division, gcds and the normalization of polynomial vectors.

The variable set is fixed and ordered: t < s < l < f < x < y (l is the
curvature parameter, f the algebraic auxiliary variable).  Monomials are
exponent 6-tuples; the canonical term order is graded lexicographic on that
variable order, which also fixes the text serialization.

Everything here is immutable and pure.  Division and gcd are exact
throughout: small gcds go through a primitive polynomial remainder sequence
on recursively-univariate representations, large bivariate ones through
Brown's evaluation and interpolation with integer images.
"""

from __future__ import annotations

import heapq
import re
from math import gcd, lcm, prod

from ._kernels_py import field_struct, mul_poly
from .exactnum import ONE, Rat, ZERO, rat_gcd, rat_str

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
    denominator of the coefficients."""
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


class Poly:
    """Sparse polynomial: dict from exponent 6-tuple to nonzero Rat."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(q) -> "Poly":
        q = q if not isinstance(q, int) else Rat(q)
        return Poly({_ZMONO: q} if q else {})

    @staticmethod
    def var(v, exp: int = 1) -> "Poly":
        i = _vi(v)
        mono = tuple(exp if j == i else 0 for j in range(NVARS))
        return Poly({mono: ONE})

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

    def degree(self, v=None) -> int:
        """Degree in variable v, or total degree if v is None; -1 for 0."""
        if not self.terms:
            return -1
        if v is None:
            return max(sum(m) for m in self.terms)
        i = _vi(v)
        return max(m[i] for m in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self):
        if not self.terms:
            return ZERO
        return self.terms[self.leading_monomial()]

    def coeff(self, mono):
        return self.terms.get(tuple(mono), ZERO)

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
        d = da * db
        p = Poly.__new__(Poly)
        if d == 1:
            p.terms = {m: Rat(c) for m, c in mul_poly(a, b).items()}
        else:
            p.terms = {m: Rat(c, d) for m, c in mul_poly(a, b).items()}
        return p

    __rmul__ = __mul__

    def scale(self, q) -> "Poly":
        if isinstance(q, int):
            q = Rat(q)
        if not q:
            return Poly()
        p = Poly.__new__(Poly)
        p.terms = {m: c * q for m, c in self.terms.items()}
        return p

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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

    @staticmethod
    def from_univar(coeffs: list["Poly"], v) -> "Poly":
        i = _vi(v)
        out = {}
        for e, p in enumerate(coeffs):
            for m, c in p.terms.items():
                mono = m[:i] + (e + m[i],) + m[i + 1:]
                out[mono] = out.get(mono, ZERO) + c
        return Poly(out)

    def coeff_of(self, v, e: int) -> "Poly":
        """Coefficient of v^e, a polynomial in the remaining variables."""
        i = _vi(v)
        out = {}
        for m, c in self.terms.items():
            if m[i] == e:
                out[m[:i] + (0,) + m[i + 1:]] = c
        return Poly(out)

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r})"

    def __str__(self):
        return poly_to_str(self)


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


def poly_div_exact(A: Poly, B: Poly) -> Poly:
    """Exact quotient A/B; raises ArithmeticError if B does not divide A.

    With A = a A' and B = b B', A' and B' primitive integer polynomials, B'
    divides A' over Q exactly when it divides it over Z (Gauss's lemma), so
    A'/B' is computed on ints and a leading coefficient that lc(B') does not
    divide proves the division inexact.  The quotient is (a/b) A'/B'.

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
    # fields sized for A's total degree also hold every monomial of B, of
    # the quotient and of the remainders, unless B's degree is higher,
    # and then B cannot divide A
    deg = max(map(sum, A.terms))
    if max(map(sum, B.terms)) > deg:
        raise ArithmeticError("inexact polynomial division")
    a, ia = _primitive_ints(A.terms)
    b, ib = _primitive_ints(B.terms)
    layout = field_struct(NVARS + 1, deg.bit_length() + 1)
    top = 1 << (8 * layout.size // (NVARS + 1) - 1)
    guard = int.from_bytes(layout.pack(*[top] * (NVARS + 1)), "big")

    def pack(m):
        return int.from_bytes(layout.pack(sum(m), *m), "big")

    bterms = sorted((pack(m), c) for m, c in ib.items())
    lmB, lcB = bterms.pop()
    rem = {pack(m): c for m, c in ia.items()}
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
    p.terms = {unpack(d.to_bytes(size, "big"))[1:]: Rat(q * rn, rd)
               for d, q in quo.items()}
    return p


def rat_content(A: Poly):
    """Positive rational c with A/c having coprime integer coefficients."""
    c = ZERO
    for v in A.terms.values():
        # no early exit at c == 1: a later fractional coefficient can still
        # lower the content (rat_gcd(1, 3/2) = 1/2)
        c = rat_gcd(c, v)
    return c


def primitive_rat(A: Poly):
    """(c, P) with A = c*P, P integer-coprime with positive leading coeff."""
    if A.is_zero():
        return ONE, A
    c = rat_content(A)
    if A.leading_coeff() < 0:
        c = -c
    return c, A.scale(ONE / c)


def _prem(A: list, B: list):
    """Pseudo-remainder of univariate coefficient lists over Poly."""
    A = list(A)
    db = len(B) - 1
    lcB = B[-1]
    while len(A) - 1 >= db and A:
        da = len(A) - 1
        lcA = A[-1]
        # A <- lcB*A - lcA*v^(da-db)*B
        A = [lcB * a for a in A]
        shift = da - db
        for j, b in enumerate(B):
            A[shift + j] = A[shift + j] - lcA * b
        while A and A[-1].is_zero():
            A.pop()
    return A


def _uv_content(coeffs: list):
    g = Poly()
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.is_const() and not g.is_zero():
            break
    return g


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
    out = [ZERO] * (A.degree(v) + 1)
    for m, c in A.terms.items():
        out[m[i]] = c
    return out


def _gcd_univar(A: Poly, B: Poly, v) -> Poly:
    """gcd of polynomials involving only variable v, keeping the rational
    content (matching the PRS convention)."""
    if A.is_zero():
        return primitive_rat(B)[1] if not B.is_zero() else Poly()
    if B.is_zero():
        return primitive_rat(A)[1]
    g = _euclid_lists(_univar_coeffs(A, v), _univar_coeffs(B, v))
    i = _vi(v)
    return primitive_rat(Poly({tuple(e if j == i else 0
                                     for j in range(NVARS)): c
                               for e, c in enumerate(g) if c}))[1]


def _eval_var(A: Poly, v, a) -> Poly:
    """Substitute the rational value a for variable v."""
    i = _vi(v)
    out = {}
    for m, c in A.terms.items():
        key = m[:i] + (0,) + m[i + 1:]
        out[key] = out.get(key, ZERO) + c * a ** m[i]
    return Poly(out)


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
    rows = [[0] * (A.degree(ive) + 1) for _ in range(A.degree(ivm) + 1)]
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
    (Brown's method over the rationals).  The primitive remainder sequence
    blows up on inputs of this size; interpolation does not."""
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

    target = gamma.degree(ve) + min(pa.degree(ve), pb.degree(ve)) + 1
    while True:
        xs = []
        images = []
        dmin = None
        a = 0
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
            target += 8
            continue
        return primitive_rat(H * cont)[1]


def poly_gcd(A: Poly, B: Poly) -> Poly:
    """Multivariate gcd, primitive with positive leading coefficient.

    Small instances go through a primitive PRS on the recursively-univariate
    representation; large two-variable instances (which arise when clearing
    the holonomic kernel vectors) switch to evaluation/interpolation, where
    the PRS would swell catastrophically.
    """
    if A.is_zero():
        return primitive_rat(B)[1] if not B.is_zero() else Poly()
    if B.is_zero():
        return primitive_rat(A)[1]
    pv = A.vars_present() | B.vars_present()
    if not pv:
        return Poly.const(rat_gcd(A.const_value(), B.const_value()))
    if len(pv) == 1:
        v = pv.pop()
        return _gcd_univar(A, B, v)
    if len(pv) == 2 and len(A.terms) + len(B.terms) > 80:
        v1, v2 = sorted(pv)
        # evaluate the variable of smaller degree: fewer sample points
        d1 = max(A.degree(v1), B.degree(v1))
        d2 = max(A.degree(v2), B.degree(v2))
        vm, ve = (v2, v1) if d1 <= d2 else (v1, v2)
        return _poly_gcd_bivar(A, B, vm, ve)
    v = max(pv)
    ua, ub = A.as_univar(v), B.as_univar(v)
    ca, cb = _uv_content(ua), _uv_content(ub)
    cont = poly_gcd(ca, cb)
    pa = [poly_div_exact(c, ca) for c in ua]
    pb = [poly_div_exact(c, cb) for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb)
        pa = pb
        if not r:
            pb = []
            break
        cr = _uv_content(r)
        pb = [poly_div_exact(c, cr) for c in r]
    g = Poly.from_univar(pa, v)
    g = primitive_rat(g)[1]
    return cont * g


def clear_and_normalize(polys: list, sign_entry: int = 0) -> list:
    """Scale a nonzero polynomial vector to coprime integer entries.

    Divides by the common polynomial factor and the common rational content,
    and flips the global sign so the designated entry (or, if it is zero, the
    first nonzero one) has a positive leading coefficient.
    """
    if all(p.is_zero() for p in polys):
        raise ValueError("cannot normalize the zero vector")
    g = Poly()
    for p in polys:
        g = poly_gcd(g, p)
    polys = [poly_div_exact(p, g) if not p.is_zero() else p for p in polys]
    c = ZERO
    for p in polys:
        c = rat_gcd(c, rat_content(p)) if not p.is_zero() else c
    polys = [p.scale(ONE / c) for p in polys]
    anchor = polys[sign_entry]
    if anchor.is_zero():
        anchor = next(p for p in polys if not p.is_zero())
    if anchor.leading_coeff() < 0:
        polys = [-p for p in polys]
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
            body = rat_str(mag) + "*" + "*".join(factors)
        else:
            body = rat_str(mag)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


_TOKEN = re.compile(r"[a-z]+(?:\^\d+)?|\d+(?:/\d+)?|[+\-*]")


def poly_parse(text: str) -> Poly:
    """Parse the `poly_to_str` grammar (whitespace-insensitive)."""
    s = text.replace(" ", "")
    if not s or s == "0":
        return Poly()
    tokens = _TOKEN.findall(s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse polynomial text: {text!r}")
    result = Poly()
    sign = 1
    term_coeff = None
    term_mono = None
    expect_factor = True

    def flush():
        nonlocal result, term_coeff, term_mono
        if term_mono is not None:
            c = term_coeff if term_coeff is not None else ONE
            result = result + Poly({tuple(term_mono): c * sign})
        term_coeff = None
        term_mono = None

    for tok in tokens:
        if tok in "+-":
            if expect_factor and term_mono is None:
                # unary sign
                sign = sign * (1 if tok == "+" else -1)
                continue
            flush()
            sign = 1 if tok == "+" else -1
            expect_factor = True
        elif tok == "*":
            expect_factor = True
        else:
            if term_mono is None:
                term_mono = [0] * NVARS
            if tok[0].isdigit():
                if "/" in tok:
                    a, b = tok.split("/")
                    q = Rat(int(a), int(b))
                else:
                    q = Rat(int(tok))
                term_coeff = q if term_coeff is None else term_coeff * q
            else:
                if "^" in tok:
                    name, e = tok.split("^")
                    e = int(e)
                else:
                    name, e = tok, 1
                if name not in VAR_INDEX:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                term_mono[VAR_INDEX[name]] += e
            expect_factor = False
    flush()
    return result
