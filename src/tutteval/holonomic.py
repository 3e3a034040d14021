"""Holonomic machinery for the degree bound on b(s, lambda).

The algebraic series phi (phi = lambda(1+phi)^4) makes
F = sqrt([1 + lambda s + s + (1+lambda s) phi (1-phi-phi^2)]^2 - 4s(1+lambda s)^2)
holonomic of rank 4 in lambda.  This module certifies the closed form of
phi' = P0(lambda, phi), builds a derivative tower over the fraction field
in (s, lambda), extracts the two linear dependency vectors among the
Q_i/i!, Q_i = F^(i)/F the derivatives d^iF/dlambda^i over F, and runs the
resulting recursions for the coefficients b_l, whose s-degree bound (<= l)
is the target statement.

The tower is T_i = W^i F^(i)/F, W = F^2 reduced modulo P = phi -
lambda(1+phi)^4, each of phi-degree <= 3: T_0 = 1 and T_(i+1) =
W dT_i - (i - 1/2) dW T_i, d the lambda derivative along phi(lambda).  It
takes no inverse modulo P, so its denominators hold only lambda and
256 lambda - 27, those of P0.  W is a unit modulo P, so the columns
W^(top-i) T_i/i! = W^top Q_i/i! have the linear relations of the Q_i/i!:
the kernel and the re-expansions read those columns, and the series oracle
checks W^i F^(i) = T_i F.

Generic fraction arithmetic over Q(s, lambda) swells badly (every operation
triggers a bivariate gcd), so tower elements are held as PhiQuot values: a
phi-polynomial numerator over a denominator kept in FACTORED form, a product
of powers of a few fixed primes, each the key of its exponent.  Cancellation
then needs only trial exact divisions by the primes a value carries, never
a general gcd.  The primes are square-free and pairwise coprime, so a
numerator that one of them divides loses that factor, whatever the others
do.  A sum of PhiQuot values, with rational or (s, lambda)-polynomial
multipliers, is taken by `_pq_sum` over the least common factored
denominator and normalized once; the sums of its phi-powers are one
`sums_of_products`, which packs each lifted multiplier once.

Each dependency vector carries its band: R among Q_0..Q_4 and Rhat among
Q_1..Q_5 have the lambda-coefficients (i, i - offset - 1) equal to positive
multiples of s - 1 and 3s + 1, and vanish below them.  `DependencyVector`
derives indices, shift and factor from its kind and offset, and builds one
table of its nonzero lambda-coefficients R_ik = k! [lambda^k] R_i: the band
checks of the report and both b recursions index it.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, inf, prod

from .exactnum import ONE, Rat, ZERO, rat_gcd
from .polyring import (Poly, clear_and_normalize, partial_derivative,
                       point_value, poly_div_exact, poly_gcd, poly_to_str,
                       rat_content, sums_of_products)
from .report import Record, Report, failed, inconclusive, passed
from .series import Series2
from .tutte import phi_series

TOWER_MAX = 10

LAM = Poly.var("l")
PHI = Poly.var("f")
P_DEFINING = PHI - LAM * (1 + PHI) ** 4
# phi is singular at lambda = 27/256
SINGULAR = 256 * LAM - 27

_S = Poly.var("s")
# the primes that the kernel minors of the columns W^(top-i) T_i / i! may
# share, each to any power; they only guide the stripping:
# `clear_and_normalize` certifies that no common factor is left, or the
# report fails
KERNEL_PRIMES = dict.fromkeys([
    # the denominators of P0 and of the tower
    LAM, SINGULAR,
    # up to a power of lambda, W's norm modulo P is Res_phi(P, F^2) = G E^2;
    # R_4 carries G
    (1 - 16 * LAM * (1 + LAM * _S) ** 2) ** 2
    - 64 * LAM ** 2 * _S * (1 + LAM * _S) ** 2,
    # E = -P(lambda, lambda s) / lambda; the 4x4 minors carry E^7
    (1 + LAM * _S) ** 4 - _S,
], inf)

# the closed form of phi', over the denominator l (256 l - 27)
P0_EXPECTED_NUM = (12 * LAM * PHI ** 3 + 52 * LAM * PHI ** 2 + 4 * LAM * PHI
                   - 36 * LAM + 9 * PHI)
P0_EXPECTED_DEN = {LAM: 1, SINGULAR: 1}


def p0_report() -> Report:
    """P0 is phi', exactly: P_phi P0 + P_lambda = 0 modulo P.

    Differentiating P(lambda, phi(lambda)) = 0 gives P_phi phi' + P_lambda
    = 0.  P = phi - lambda (1+phi)^4 is linear in lambda with coprime
    coefficients, so it is irreducible and Q(lambda)[phi]/P is a field.
    There P_phi = 1 - 4 lambda (1+phi)^3, of phi-degree 3 < 4, is nonzero,
    so phi' is the one solution of that equation, and P0 solving it is
    phi'."""
    t0 = time.perf_counter()
    p0 = p0_quot()
    dP_dphi = pq_from_poly(partial_derivative(P_DEFINING, "f"))
    dP_dlam = pq_from_poly(partial_derivative(P_DEFINING, "l"))
    if not _pq_eq(_pq_mul(dP_dphi, p0), _pq_scale(dP_dlam, Rat(-1))):
        num = [poly_to_str(n.scale(p0.c)) for n in p0.num]
        return failed("p0", {}, f"got {num} / ({poly_to_str(p0.den_poly())})",
                      1, t0)
    rep = passed("p0", {}, 1, t0)
    rep.witness = "singular locus: l = 0 and l = 27/256"
    return rep


def p0_series_report(L: int) -> Report:
    """phi'(lambda) = P0(lambda, phi(lambda)) as a lambda-series oracle."""
    t0 = time.perf_counter()
    phi = phi_series(L)
    dphi = lambda_derivative(phi)
    rhs = pq_eval_series(p0_quot(), phi, 0, L)
    if dphi.truncate(0, L - 1) != rhs.truncate(0, L - 1):
        return failed("p0_series", {"order": L}, "series mismatch", 1, t0)
    return passed("p0_series", {"order": L}, L, t0)


# -- factored-denominator phi-polynomials ----------------------------------


class PhiQuot(Record):
    """c * (num[0] + num[1] phi + num[2] phi^2 + num[3] phi^3) / den,
    den the product of p^e over (p, e) in den.items()."""

    def __init__(self, num: list, den: dict, c=ONE):
        self.num = num    # up to 4 Poly
        self.den = den    # prime Poly -> positive exponent
        self.c = c        # Rat scalar

    def is_zero(self) -> bool:
        return all(n.is_zero() for n in self.num)

    def den_poly(self) -> Poly:
        return _power_product(self.den, {})


def _power_product(exps: dict, base: dict) -> Poly:
    """The product of p^(e - base[p]) over the primes p of exps whose
    exponent e exceeds base[p] (0 when p is not in base).  The prime
    powers are small, and are multiplied together before a caller meets
    their product with a large polynomial."""
    return prod((p ** (e - base.get(p, 0)) for p, e in exps.items()
                 if e > base.get(p, 0)), start=Poly.one())


def _multiplicity(v: int, px: int, cap) -> int:
    """The largest k <= cap with px^k dividing v; v != 0, |px| >= 2."""
    k = 0
    while k < cap and not v % px:
        v //= px
        k += 1
    return k


def _strip_primes(num: list, caps: dict) -> tuple:
    """(quotients, {p: k}): the entries of num, not all zero, divided by
    p^k for each prime p of caps, k <= caps[p] the largest such that p^k
    divides every entry.  The primes are coprime, so the order does not
    matter.

    Each entry is divided by p^k for k from a bound down, and k steps down
    only if a division fails.  If p^k divides an entry n, then p(x)^k
    divides n(x) at the point x of `point_value`, so where |p(x)| >= 2 and
    no nonzero entry vanishes at x, the point values bound k.  Otherwise
    the degrees do: k deg_v p <= deg_v n in a variable v of p.  After a
    division by p^k, n(x)/p(x)^k is, up to sign, the value at x of the
    quotient's primitive part, which keeps the point values valid for the
    next prime."""
    vals, ks = None, {}
    for p, cap in caps.items():
        ks[p] = k = 0
        if not cap:
            continue
        if vals is None:
            vals = [point_value(n) for n in num]
        px = point_value(p)
        if abs(px) >= 2 and all(v for n, v in zip(num, vals) if n):
            k = min(_multiplicity(v, px, cap) for v in vals if v)
        else:
            i = min(p.vars_present())
            k = min(cap, min(n.degree(i) for n in num if n) // p.degree(i))
        while k:
            pk = p ** k
            try:
                num = [poly_div_exact(n, pk) if n else n for n in num]
            except ArithmeticError:
                k -= 1
                continue
            vals = [v // px ** k for v in vals] if px else None
            break
        ks[p] = k
    return num, ks


def _pq_normalize(num: list, den: dict, c) -> PhiQuot:
    while num and num[-1].is_zero():
        num = num[:-1]
    if not num:
        return PhiQuot([], {}, ONE)
    # strip the denominator's primes as far as they divide every entry
    num, ks = _strip_primes(num, den)
    out = {p: e - ks[p] for p, e in den.items() if e > ks[p]}
    # pull the rational content into the scalar
    r = ZERO
    for n in num:
        r = rat_gcd(r, rat_content(n))
    if r and r != ONE:
        num = [n.scale(ONE / r) for n in num]
        c = c * r
    return PhiQuot(num, out, c)


_PQ_ONE = PhiQuot([Poly.one()], {}, ONE)


def _reduce_top(num: list) -> tuple:
    """Reduce a phi-coefficient list of phi-degree <= 6 modulo
    P = phi - lambda(1+phi)^4 via
    phi^k = phi^{k-3}/lambda - phi^{k-4}(1 + 4 phi + 6 phi^2 + 4 phi^3),
    for k = 6, 5, 4 in turn.  Only the parts moved to phi^{k-3} <= phi^3
    carry 1/lambda, and no later step moves them, so the value is
    (lambda low + high)/lambda.  Returns (list of <= 4 Poly, v) with
    value = sum / lambda^v, v <= 1; a higher phi-degree raises ValueError.
    """
    if len(num) > 7:
        raise ValueError(f"phi-degree {len(num) - 1} above 6")
    low = list(num)
    high = [Poly()] * 4
    for k in range(len(low) - 1, 3, -1):
        c = low[k]
        high[k - 3] = c
        for j, bc in enumerate((1, 4, 6, 4)):
            low[k - 4 + j] = low[k - 4 + j] - c * bc
    if not any(high):
        return low[:4], 0
    return [LAM * n + h for n, h in zip(low, high)], 1


def pq_from_poly(p: Poly) -> PhiQuot:
    num, v = _reduce_top(p.as_univar("f"))
    return _pq_normalize(num, {LAM: v}, ONE)


def _pq_mul(A: PhiQuot, B: PhiQuot) -> PhiQuot:
    if A.is_zero() or B.is_zero():
        return PhiQuot([], {}, ONE)
    conv = [Poly() for _ in range(len(A.num) + len(B.num) - 1)]
    for i, a in enumerate(A.num):
        if a.is_zero():
            continue
        for j, b in enumerate(B.num):
            if not b.is_zero():
                conv[i + j] = conv[i + j] + a * b
    num, v = _reduce_top(conv)
    den = dict(A.den)
    for p, e in B.den.items():
        den[p] = den.get(p, 0) + e
    den[LAM] = den.get(LAM, 0) + v
    return _pq_normalize(num, den, A.c * B.c)


def _pq_sum(terms) -> PhiQuot:
    """The sum of k A over the pairs (k, A), k a rational or a Poly in
    (s, lambda): every numerator is lifted to the least common factored
    denominator, so the sum is normalized once, and the lifted numerators
    of all phi-powers are summed by one `sums_of_products`, which shares
    each lift among the phi-powers."""
    terms = [(k if isinstance(k, Poly) else Poly.const(k), A)
             for k, A in terms if k and not A.is_zero()]
    den = {}
    for _, A in terms:
        for p, e in A.den.items():
            den[p] = max(den.get(p, 0), e)
    pairs = [(A.num, k.scale(A.c) * _power_product(den, A.den))
             for k, A in terms]
    width = max((len(n) for n, _ in pairs), default=0)
    num = sums_of_products([(n[j], lift) for n, lift in pairs if j < len(n)]
                           for j in range(width))
    return _pq_normalize(num, den, ONE)


def _pq_scale(A: PhiQuot, q) -> PhiQuot:
    if not q:
        return PhiQuot([], {}, ONE)
    return PhiQuot(list(A.num), dict(A.den), A.c * q)


def _pq_dphi(A: PhiQuot) -> PhiQuot:
    num = [A.num[i].scale(Rat(i)) for i in range(1, len(A.num))]
    return _pq_normalize(num, dict(A.den), A.c)


def _pq_dlam(A: PhiQuot) -> PhiQuot:
    """d/dlambda via the factored quotient rule: with D = prod p_i^{e_i},
    (n/D)' = (n' R - n T) / (D R), R = prod p_i, T = sum_i e_i p_i' R/p_i."""
    if A.is_zero():
        return A
    ones = dict.fromkeys(A.den, 1)
    R = _power_product(ones, {})
    T = sum((partial_derivative(p, "l").scale(Rat(e))
             * _power_product(ones, {p: 1}) for p, e in A.den.items()),
            Poly())
    num = [partial_derivative(n, "l") * R - n * T for n in A.num]
    den = {p: e + 1 for p, e in A.den.items()}
    return _pq_normalize(num, den, A.c)


def _pq_eq(A: PhiQuot, B: PhiQuot) -> bool:
    return _pq_sum([(ONE, A), (Rat(-1), B)]).is_zero()


# -- the derivative tower --------------------------------------------------


def f_squared() -> Poly:
    """F^2 as a polynomial in s, lambda, phi."""
    s = Poly.var("s")
    one_ls = 1 + LAM * s
    B = 1 + LAM * s + s + one_ls * PHI * (1 - PHI - PHI * PHI)
    return B * B - 4 * s * one_ls * one_ls


def _minors(rows: list) -> dict:
    """{cols: det} over the k-subsets cols of the columns of the k x n Poly
    matrix `rows`, k <= n: the five 4x4 minors of `_kernel_vector`.  Each
    minor is expanded along its last row over the minors of the rows above,
    which all minors of one size share; the minors of one size are one
    `sums_of_products`, so each entry and minor they read is packed once."""
    n = len(rows[0])
    level = {(j,): rows[0][j] for j in range(n)}
    for k in range(1, len(rows)):
        # the entries of the row with both signs, each negated once
        signed = (rows[k], [-x for x in rows[k]])
        subsets = list(combinations(range(n), k + 1))
        level = dict(zip(subsets, sums_of_products(
            [(signed[(k + t) % 2][c], level[cols[:t] + cols[t + 1:]])
             for t, c in enumerate(cols)] for cols in subsets)))
    return level


@lru_cache(maxsize=1)
def p0_quot() -> PhiQuot:
    """phi' = P0(lambda, phi), the closed form that `p0_report`
    certifies."""
    return _pq_normalize(P0_EXPECTED_NUM.as_univar("f"), P0_EXPECTED_DEN,
                         ONE)


def _pq_total(A: PhiQuot) -> PhiQuot:
    """The lambda derivative along phi(lambda): d_lambda A + P0 d_phi A."""
    return _pq_sum([(ONE, _pq_dlam(A)),
                    (ONE, _pq_mul(_pq_dphi(A), p0_quot()))])


@lru_cache(maxsize=1)
def w_quot() -> tuple:
    """(W, dW): W = F^2 reduced modulo P, a unit modulo P, and its lambda
    derivative along phi(lambda), dW = 2 F F'."""
    W = pq_from_poly(f_squared())
    return W, _pq_total(W)


@lru_cache(maxsize=None)
def q_tower(kmax: int) -> tuple:
    """(T_0, ..., T_kmax) with T_i = W^i F^(i) / F, phi-degree <= 3.

    T_0 = 1 and T_(i+1) = W dT_i - (i - 1/2) dW T_i, the lambda derivative
    of W^i F^(i) / F times W: no inverse modulo P is taken, so every
    denominator is a power of lambda or of 256 lambda - 27.  Each tower
    extends the cached q_tower(kmax - 1) by one step.  Towers are tuples, so
    neither that step nor a caller can change a cached one."""
    if not 1 <= kmax <= TOWER_MAX:
        raise ValueError(f"q_tower supports 1 <= kmax <= {TOWER_MAX}")
    W, dW = w_quot()
    tower = (_PQ_ONE,) if kmax == 1 else q_tower(kmax - 1)
    i = kmax - 1
    ti = tower[-1]
    tnext = _pq_sum([(ONE, _pq_mul(W, _pq_total(ti))),
                     (Rat(1, 2) - i, _pq_mul(dW, ti))])
    return tower + (tnext,)


def tower_columns(top: int, below: tuple | None = None) -> tuple:
    """The five columns W^(top-i) T_i / i!, i = top - 4..top, that is W^top
    times Q_i / i! with Q_i = F^(i) / F: as W is a unit modulo P, their
    linear relations over Q(s, lambda) are those of the Q_i / i!.

    Above top = 4 they extend `below`, the columns of top - 1, as
    W^(top-i) T_i / i! = W (W^(top-1-i) T_i / i!) for i < top, so only
    four products by W and T_top / top! are new; at top <= 4 they are
    built from the powers of W."""
    W = w_quot()[0]
    tower = q_tower(top)
    last = _pq_scale(tower[top], Rat(1, factorial(top)))
    if top > 4:
        return tuple(_pq_mul(W, col) for col in below[1:]) + (last,)
    powers = [_PQ_ONE, W]
    while len(powers) < 5:
        powers.append(_pq_mul(powers[-1], W))
    cols = []
    for i in range(top - 4, top):
        # T_0 = 1
        col = powers[top] if i == 0 else _pq_mul(powers[top - i], tower[i])
        cols.append(_pq_scale(col, Rat(1, factorial(i))))
    return tuple(cols) + (last,)


# -- series oracles --------------------------------------------------------


def poly_eval_series(p: Poly, phi: Series2, S: int, L: int) -> Series2:
    """Evaluate a polynomial in (s, lambda, phi) at phi = phi(lambda)."""
    acc = Series2.zero(S, L)
    for c in reversed(p.as_univar("f")):
        layer = Series2({(m[1], m[2]): v for m, v in c.terms.items()}, S, L)
        acc = acc * phi + layer
    return acc


def _lambda_shift(A: Series2, v: int) -> Series2:
    if any(c < v for _, c in A.coeffs):
        raise ArithmeticError(
            "series not divisible by the lambda power of the denominator")
    return A.shift(0, -v)


def pq_eval_series(A: PhiQuot, phi: Series2, S: int, L: int) -> Series2:
    acc = Series2.zero(S, L)
    for n in reversed(A.num):
        acc = acc * phi + poly_eval_series(n, phi, S, L)
    den = Series2.const(1, S, L)
    for p, e in A.den.items():
        if p != LAM:
            den = den * poly_eval_series(p, phi, S, L) ** e
    acc = acc * den.inverse()
    return _lambda_shift(acc, A.den.get(LAM, 0)).scale(A.c)


def lambda_derivative(A: Series2) -> Series2:
    return Series2({(b, c - 1): v * c for (b, c), v in A.coeffs.items() if c},
                   *A.caps)


def tower_oracle(i_max: int, S: int, L: int) -> Report:
    """Check W^i d^iF/dlambda^i = T_i(s,lambda,phi(lambda)) F as truncated
    series, W = F^2; accuracy lost to differentiation and lambda-denominators
    is absorbed by a widened internal cap."""
    t0 = time.perf_counter()
    params = {"i_max": i_max, "s_cap": S, "lambda_cap": L}
    if not 1 <= i_max <= TOWER_MAX:
        return inconclusive("tower_oracle", params,
                            f"i_max {i_max} is outside 1..{TOWER_MAX}", 0, t0)
    tower = q_tower(i_max)
    slack = max(t.den.get(LAM, 0) for t in tower)
    Lw = L + i_max + slack
    phi = Series2(phi_series(Lw).coeffs, S, Lw)
    W = poly_eval_series(f_squared(), phi, S, Lw)
    F = W.sqrt()  # the principal root
    dF, Wi = F, Series2.const(1, S, Lw)
    cases = 0
    for i in range(1, i_max + 1):
        dF = lambda_derivative(dF)
        Wi = Wi * W
        ti = pq_eval_series(tower[i], phi, S, Lw)
        if (Wi * dF).truncate(S, L) != (ti * F).truncate(S, L):
            return failed("tower_oracle", params, f"mismatch at i={i}",
                          cases, t0)
        cases += 1
    return passed("tower_oracle", params, cases, t0)


# -- dependency vectors ----------------------------------------------------


# the factor of the band of each dependency vector, gcd 1 between the two
BAND_FACTOR = {"R": Poly.var("s") - 1, "Rhat": 3 * Poly.var("s") + 1}


class DependencyVector(Record):
    """A cleared, content-free kernel vector among the Q_i/i!, i in
    `indices` = offset..offset+4.

    Its band is the lambda-coefficients (i, i - shift), shift = offset + 1,
    for i above the offset: each is a positive scalar times the factor
    BAND_FACTOR[kind], and every coefficient (i, k) with k < i - shift
    vanishes, i.e. is missing from `table`."""

    def __init__(self, kind: str, offset: int, entries: list | None = None):
        self.kind = kind          # "R" or "Rhat"
        self.offset = offset      # index of entries[0]
        # Poly in (s, lambda)
        self.entries = [] if entries is None else entries

    @property
    def indices(self) -> range:
        return range(self.offset, self.offset + len(self.entries))

    @property
    def shift(self) -> int:
        return self.offset + 1

    @property
    def factor(self) -> Poly:
        return BAND_FACTOR[self.kind]

    def entry(self, i: int) -> Poly:
        return self.entries[i - self.offset]

    def table(self) -> dict:
        """{(i, k): R_ik} over the nonzero R_ik = k! [lambda^k] R_i, each a
        polynomial in s, in one pass over the entries.

        A reader builds it once and keeps it only while it reads it: kept on
        the vectors, which a holonomic run holds to its end, both tables
        would outlive their readers and raise the peak memory of the run."""
        parts = {}
        for i in self.indices:
            for m, c in self.entry(i).terms.items():
                parts.setdefault((i, m[2]), {})[m[:2] + (0,) + m[3:]] = c
        return {(i, k): Poly(terms).scale(factorial(k))
                for (i, k), terms in parts.items()}


def _kernel_vector(cols: list, primes: dict) -> list:
    """Kernel vector of the 4x5 phi-coefficient matrix of the PhiQuot
    columns, a line when that matrix has rank 4.

    With N the numerator matrix, the fraction-free Cramer rule gives the
    kernel of N as the five signed 4x4 minors y_i, (-1)^i det N without
    column i, from `_minors`.  All five vanishing means rank < 4, i.e.
    kernel dimension > 1, and is rejected.  The value matrix has columns
    c_i N_i / D_i, so component i is y_i D_i / c_i.

    The numerators that `_pq_normalize` leaves are content-free integer
    polynomials, so every product in the minors runs on integers (see
    `Poly.__mul__`), several times faster than on rationals.  The large
    common factor of the components, powers of the primes of the column
    denominators and of `primes`, is removed in exponent space: each minor
    is stripped of those primes, the column denominators are added as
    exponents, and only the powers above the least ones are multiplied
    back.  When `primes` holds every prime the minors share, the entries
    come back coprime: certified by `clear_and_normalize`, or the report
    fails."""
    N = [[col.num[r] if r < len(col.num) else Poly() for col in cols]
         for r in range(4)]
    m4 = _minors(N)
    ys = [m4[tuple(c for c in range(5) if c != i)] for i in range(5)]
    if all(y.is_zero() for y in ys):
        raise ArithmeticError(
            "all 4x4 minors vanish: kernel dimension exceeds 1")
    ys = [-y if i % 2 else y for i, y in enumerate(ys)]
    caps = dict(primes)
    caps.update(dict.fromkeys((p for col in cols for p in col.den), inf))
    stripped = []
    for y, col in zip(ys, cols):
        core, exps = y, {}
        if not y.is_zero():
            (core,), exps = _strip_primes([y], caps)
        for p, e in col.den.items():
            exps[p] = exps.get(p, 0) + e
        stripped.append((core, exps))
    base = {p: min(e.get(p, 0) for core, e in stripped if not core.is_zero())
            for p in caps}
    return [(core * _power_product(exps, base)).scale(ONE / col.c)
            for (core, exps), col in zip(stripped, cols)]


def _band_vector(kind: str, offset: int, vec: list) -> DependencyVector:
    """The kernel vector vec, indexed from offset, cleared of its common
    factor and content, with the sign that gives the lambda^0 part of entry
    offset + 1, the first band coefficient, a positive leading
    coefficient."""
    entries = clear_and_normalize(vec)
    band = Poly({m: c for m, c in entries[1].terms.items() if m[2] == 0})
    if band.leading_coeff() < 0:
        entries = [-p for p in entries]
    return DependencyVector(kind, offset, entries)


def find_R(cols: tuple | None = None) -> DependencyVector:
    """Dependency among Q_0/0!, ..., Q_4/4!: the rank-4 relation.

    It is read off cols, the columns W^(4-i) T_i / i! of `tower_columns(4)`
    (built here when None), whose kernel is that of the Q_i/i!.
    `_kernel_vector` takes the five 4x4 minors and raises ArithmeticError if
    they all vanish, i.e. if the kernel is not a line.  Its components come
    back with no common factor, since KERNEL_PRIMES holds the primes that
    the minors share and they are stripped: certified by
    `clear_and_normalize`, which raises ArithmeticError otherwise, so the
    report fails.  `_band_vector` clears the vector of its content and fixes
    its sign by the band R_{1,0}."""
    cols = tower_columns(4) if cols is None else cols
    return _band_vector("R", 0, _kernel_vector(list(cols), KERNEL_PRIMES))


def find_Rhat(R: DependencyVector | None = None) -> DependencyVector:
    """Dependency among Q_1/1!, ..., Q_5/5! (one derivative deeper),
    derived from the vector R of `find_R` (built here when None) rather
    than from minors of the Q_1..Q_5 matrix.

    With r_i = R_i/i!, R says sum_{i<=4} r_i F^(i) = 0.  Its lambda
    derivative is sum_{j<=5} (r_j' + r_{j-1}) F^(j) = 0 (r_{-1} = r_5 = 0);
    r_0 times that minus r_0' times R eliminates F and leaves
    sum_{j=1..5} c_j F^(j) = 0 with c_j = r_0 (r_j' + r_{j-1}) - r_0' r_j.
    As F^(j) = Q_j F, the vector (j! c_j) is a kernel vector of the columns
    Q_j/j!, and it is nonzero: c_5 = r_0 r_4, where r_4 != 0 unless
    Q_0..Q_3 are dependent, which F's order 4 rules out and which is
    checked.  On the integer entries of R,
    j! c_j = R_0 (R_j' + j R_{j-1}) - R_0' R_j, a sum of two products.

    Uniqueness: the kernel of Q_1..Q_5 is a line, since their 4 x 5
    phi-coefficient matrix has rank 4 by two facts already checked.  find_R
    has a nonzero 4x4 minor, so the kernel of Q_0..Q_4 is a line, spanned by
    R.  R_0 != 0, so Q_1..Q_4 are independent: a relation among them would
    be a kernel vector of Q_0..Q_4 with a zero index-0 entry.  R_0 = 0
    raises ArithmeticError, as the elimination needs R_0 != 0 too.  The
    line is then normalized exactly as find_R normalizes its vector.

    Any verified common divisor of the entries may be removed first:
    `clear_and_normalize` certifies that no common factor is left, or the
    report fails.  A common factor p of the c_j that is prime to r_0
    divides c_5 = r_0 r_4, so p | r_4, and c_4 = r_0 (r_4' + r_3) - r_0' r_4,
    so p | r_4' + r_3 = (R_4' + 4 R_3) / 4!.  The divisor taken is H, R_4
    without the primes of KERNEL_PRIMES and without its monomial content:
    with K = R_4 / H and M = (R_4' + 4 R_3) / H, 5! c_5 / H = 5 R_0 K and
    4! c_4 / H = R_0 M - R_0' K, so only j! c_j for j <= 3 are divided.  If
    H does not divide R_4' + 4 R_3 or one of them, ArithmeticError is
    raised, and the report fails."""
    R = (find_R() if R is None else R).entries + [Poly()]
    if R[0].is_zero():
        raise ArithmeticError("R_0 = 0: F cannot be eliminated from R")
    if R[4].is_zero():
        raise ArithmeticError("R_4 = 0: Q_0..Q_3 are dependent")
    dR = [partial_derivative(p, "l") for p in R]
    # j! c_j = R_0 d_j - R_0' R_j with d_j = R_j' + j R_{j-1}; c_1..c_3 are
    # one call, which packs R_0 and -R_0' once
    d = {j: dR[j] + R[j - 1].scale(j) for j in range(1, 6)}
    neg = -dR[0]
    c = sums_of_products([(R[0], d[j]), (neg, R[j])] for j in range(1, 4))
    (core,), ks = _strip_primes([R[4]], KERNEL_PRIMES)
    low = tuple(map(min, zip(*core.terms)))
    H = poly_div_exact(core, Poly({low: 1})) if any(low) else core
    K = _power_product(ks, {}) * Poly({low: 1})
    try:
        M = poly_div_exact(d[4], H)
        vec = [poly_div_exact(cj, H) for cj in c]
    except ArithmeticError as exc:
        raise ArithmeticError(
            "H, R_4 without its kernel primes, does not divide "
            "R_4' + 4 R_3 or one of c_1..c_3") from exc
    vec += sums_of_products([[(R[0], M), (neg, K)]]) + [(R[0] * K).scale(5)]
    return _band_vector("Rhat", 1, vec)


def dependency_report(kind: str, dv, cols: tuple) -> Report:
    """Structural checks on the dependency vector dv of the given kind, or
    the ArithmeticError that refused it, whose reason fails the report.
    cols are the columns of `tower_columns` that dv relates: of top 4 for
    R, of top 5 for Rhat."""
    t0 = time.perf_counter()
    params = {"kind": kind}
    cases = 0
    if kind not in BAND_FACTOR:
        return failed("dependency", params,
                      f"unknown kind {kind!r}: expected 'R' or 'Rhat'",
                      cases, t0)
    if isinstance(dv, ArithmeticError):
        return failed("dependency", params, str(dv), cases, t0)
    shift = dv.shift

    # re-expansion: sum R_i W^(top-i) T_i / i! = W^top sum R_i Q_i / i! = 0
    # identically mod P, W a unit
    acc = _pq_sum(zip(dv.entries, cols))
    if not acc.is_zero():
        return failed("dependency", params, "re-expansion is nonzero",
                      cases, t0)
    cases += 1

    # vanishing below the band; the table is built after the re-expansion,
    # the peak of the report's memory
    table = dv.table()
    for i in dv.indices:
        for k in range(0, i - shift):
            if (i, k) in table:
                return failed("dependency", params,
                              f"coefficient ({i},{k}) should vanish",
                              cases, t0)
            cases += 1

    # band coefficients: positive scalar multiples of the common factor
    scalars = []
    for i in dv.indices[1:]:
        lead = table.get((i, i - shift), Poly())
        try:
            c = poly_div_exact(lead, dv.factor)
        except ArithmeticError:
            return failed("dependency", params,
                          f"({i},{i - shift}) is not a multiple of "
                          f"{poly_to_str(dv.factor)}", cases, t0)
        if not c.is_const() or c.const_value() <= 0:
            return failed("dependency", params,
                          f"({i},{i - shift}) is not a positive scalar "
                          f"multiple of {poly_to_str(dv.factor)}", cases, t0)
        scalars.append(c.const_value())
        cases += 1

    if kind == "Rhat":
        # weights s: 2, lambda: -2; a zero entry meets any bound
        for i in dv.indices:
            bound = 2 * (3 - i)
            wd = max((2 * p.degree("s") - 2 * k
                      for (j, k), p in table.items() if j == i), default=bound)
            if wd > bound:
                return failed("dependency", params,
                              f"weighted degree of entry {i} is {wd} > "
                              f"{bound}", cases, t0)
            cases += 1

    rep = passed("dependency", params, cases, t0)
    rep.witness = "band scalars: " + ", ".join(str(c) for c in scalars)
    return rep


# -- the b sequence --------------------------------------------------------


class BSeq(Record):
    """b_0..b_L as polynomials in s, with provenance and the orders L that
    were asked for (bl is shorter when the build stopped early)."""

    def __init__(self, source: str, orders: int, bl: list | None = None):
        self.source = source  # "direct" | "recursion"
        self.orders = orders
        self.bl = [] if bl is None else bl

    def degree_report(self) -> Report:
        t0 = time.perf_counter()
        params = {"source": self.source, "orders": self.orders}
        if not self.bl:
            return inconclusive("b_degree", params, "no b_l to check", 0, t0)
        for l, p in enumerate(self.bl):
            if p.degree("s") > l:
                return failed("b_degree", params,
                              f"deg b_{l} = {p.degree('s')} > {l}", l, t0)
        return passed("b_degree", params, len(self.bl), t0)


def b_direct(S: int, L: int) -> BSeq:
    """Expand b = s + (1+lambda s) sqrt((1+r)^2 - 4s) and slice by lambda
    order.  Needs L >= 0, and S >= L + 2 so each b_l fits under the s cap."""
    from .template import base_series

    if L < 0:
        raise ValueError(f"lambda cap {L} is negative; need >= 0")
    if S < L + 2:
        raise ValueError(f"s cap {S} too small for lambda cap {L}")
    b = base_series(S, L)[-1]
    out = []
    for l in range(L + 1):
        p = b.lambda_slice(l).scale(Rat(factorial(l)))
        if p.degree("s") >= S:
            raise ArithmeticError(
                f"b_{l} saturates the s cap {S}; result inconclusive")
        out.append(p)
    return BSeq("direct", L, out)


def b_recursion(L: int, R, Rhat) -> tuple:
    """Rebuild b_0..b_L from the recursions of the two dependency vectors R
    and Rhat of `find_R` and `find_Rhat`.

    At order l, the coefficient R_ik of a vector with shift h meets b_m,
    m = l + i - k, with weight C(l, k); the entries with m = l + h, its band,
    determine b_{l+h} by an exact division, as the band is a scalar multiple
    of its factor: s - 1 for R, 3s + 1 for Rhat.  A nonzero remainder would
    be a counterexample and is reported as such, and so is an entry below
    the band (m > l + h).  The two routes must agree wherever both apply.
    With L < 1 there is no b_l to derive, and the result is inconclusive;
    a refused dependency vector, passed as the ArithmeticError that refused
    it, fails the report with its reason and leaves the sequence empty.
    """
    t0 = time.perf_counter()
    params = {"orders": L}
    if L < 1:
        return BSeq("recursion", L), inconclusive(
            "b_recursion", params,
            f"orders {L} leave no b_l to derive; need orders >= 1", 0, t0)
    for dv in (R, Rhat):
        if isinstance(dv, ArithmeticError):
            # a refused dependency vector leaves no recursion to run
            return BSeq("recursion", L), failed("b_recursion", params,
                                                str(dv), 0, t0)
    s = Poly.var("s")
    b = [Poly.one(), 3 * s + 1]
    cases = 0
    # the recursion identity pairs b^{(i)} with R_ik / i!: the stored vector
    # is normalized against the columns Q_i/i!, while the lambda-coefficient
    # comparison expands sum_i R_i d^iF/dlambda^i with no factorial on the
    # derivative
    routes = [(dv, {(i, k): p.scale(Rat(1, factorial(i)))
                    for (i, k), p in dv.table().items()})
              for dv in (R, Rhat)]

    for l in range(0, L):
        for dv, r in routes:
            target = l + dv.shift
            if target > L:
                continue
            route = f"({poly_to_str(dv.factor)}) route"
            # the weight of each b_m, summed before any product with b_m
            weights = {}
            for (i, k), p in r.items():
                if k > l:
                    continue
                m = l + i - k
                if m > target:
                    rep = failed("b_recursion", params,
                                 f"{route}: coefficient ({i},{k}) lies below "
                                 f"the band", cases, t0)
                    return BSeq("recursion", L, b), rep
                weights[m] = weights.get(m, Poly()) + p.scale(comb(l, k))
            lead = weights.pop(target, Poly())
            # b = s + F, and s is lambda-free: only an index-0 entry sees it
            rhs = r.get((0, l), Poly()) * s
            for m, w in weights.items():
                rhs = rhs - w * b[m]
            try:
                b_next = poly_div_exact(rhs, lead)
            except ArithmeticError:
                rep = failed("b_recursion", params,
                             f"{route}: inexact division at l={l}", cases, t0)
                return BSeq("recursion", L, b), rep
            if target < len(b):
                if b[target] != b_next:
                    rep = failed("b_recursion", params,
                                 f"{route} disagrees at b_{target}", cases, t0)
                    return BSeq("recursion", L, b), rep
            else:
                b.append(b_next)
            cases += 1

    rep = passed("b_recursion", params, cases, t0)
    return BSeq("recursion", L, b[:L + 1]), rep


def b_equality_report(x: BSeq, y: BSeq) -> Report:
    """The two sources must produce identical polynomials order by order."""
    t0 = time.perf_counter()
    n = min(len(x.bl), len(y.bl))
    params = {"sources": f"{x.source}/{y.source}",
              "orders": min(x.orders, y.orders)}
    if n == 0:
        return inconclusive("b_equality", params, "no b_l to compare", 0, t0)
    for l in range(n):
        if x.bl[l] != y.bl[l]:
            return failed("b_equality", params,
                          f"sources disagree at b_{l}", l, t0)
    return passed("b_equality", params, n, t0)


def coprimality_report() -> Report:
    """The band factors of R and Rhat (`BAND_FACTOR`, s - 1 and 3s + 1)
    have gcd 1, the hypothesis joining the two recursions."""
    t0 = time.perf_counter()
    g = poly_gcd(BAND_FACTOR["R"], BAND_FACTOR["Rhat"])
    if g == Poly.one():
        return passed("coprimality", {}, 1, t0)
    return failed("coprimality", {}, f"gcd = {poly_to_str(g)}", 1, t0)
