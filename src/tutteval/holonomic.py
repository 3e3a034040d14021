"""Holonomic machinery for the degree bound on b(s, lambda).

The algebraic series phi (phi = lambda(1+phi)^4) makes
F = sqrt([1 + lambda s + s + (1+lambda s) phi (1-phi-phi^2)]^2 - 4s(1+lambda s)^2)
holonomic of rank 4 in lambda.  This module derives phi' = P0(lambda, phi),
builds the derivative tower d^iF/dlambda^i = Q_i F with Q_i of phi-degree
<= 3 over the fraction field in (s, lambda), extracts the two linear
dependency vectors among the Q_i/i!, and runs the resulting recursions for
the coefficients b_l, whose s-degree bound (<= l) is the target statement.

Generic fraction arithmetic over Q(s, lambda) swells badly (every operation
triggers a bivariate gcd), so tower elements are held as PhiQuot values: a
phi-polynomial numerator over a denominator kept in FACTORED form, a product
of powers of a few fixed primes (lambda, 256 lambda - 27, and the square-free
factors of the core of an inversion determinant), each the key of its
exponent.  Cancellation then needs only trial exact divisions by the primes
a value carries, never a general gcd.  The primes are square-free and
pairwise coprime, so a numerator that one factor of the core divides loses
that factor, whatever the others do.  A sum of PhiQuot values, with rational
or (s, lambda)-polynomial multipliers, is taken by `_pq_sum` over the least
common factored denominator and normalized once.

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

from .exactnum import ONE, Rat, ZERO, rank, rat_gcd
from .polyring import (Poly, _value_at_point, clear_and_normalize,
                       partial_derivative, point_value, poly_div_exact,
                       poly_gcd, poly_to_str, primitive_rat,
                       rat_content, strip_gcd, sum_of_products)
from .report import Record, Report, failed, inconclusive, passed
from .series import Series2
from .tutte import phi_series

TOWER_MAX = 6  # rational-function swell beyond this exceeds desk scale

LAM = Poly.var("l")
PHI = Poly.var("f")
P_DEFINING = PHI - LAM * (1 + PHI) ** 4
# phi is singular at lambda = 27/256
SINGULAR = 256 * LAM - 27

# the closed form of phi', over the denominator l (256 l - 27)
P0_EXPECTED_NUM = (12 * LAM * PHI ** 3 + 52 * LAM * PHI ** 2 + 4 * LAM * PHI
                   - 36 * LAM + 9 * PHI)
P0_EXPECTED_DEN = {LAM: 1, SINGULAR: 1}


def p0_report() -> Report:
    """P0 equals the expected rational function, exactly."""
    t0 = time.perf_counter()
    p0 = p0_quot()
    expected = _pq_normalize(P0_EXPECTED_NUM.as_univar("f"), P0_EXPECTED_DEN,
                             ONE)
    if not _pq_eq(p0, expected):
        num = [poly_to_str(n.scale(p0.c)) for n in p0.num]
        return failed("p0", {}, f"got {num} / ({poly_to_str(p0.den_poly())})",
                      1, t0)
    rep = passed("p0", {}, 1, t0)
    rep.witness = "singular locus: l = 0 and l = 27/256"
    return rep


def p0_series_report(L: int = 20) -> Report:
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


def _strip_primes(num: list, caps: dict) -> tuple:
    """(quotients, {p: k}): the entries of num, not all zero, divided by
    p^k for each prime p of caps, k <= caps[p] the largest such that p^k
    divides every entry.  The primes are coprime, so the order does not
    matter.  A prime p divides an entry n only if p(x) divides n(x) at the
    point x of `point_value`, so every entry is tested there before any is
    divided.  After a division, n(x)/p(x) is the value at x of an integer
    multiple of the quotient, which keeps the test valid for the next power
    of p."""
    vals = None
    ks = {}
    for p, cap in caps.items():
        px = point_value(p)
        k = 0
        while k < cap:
            if vals is None:
                vals = [point_value(n) for n in num]
            if px and any(v % px for v in vals):
                break
            try:
                num = [poly_div_exact(n, p) if n else n for n in num]
            except ArithmeticError:
                break
            vals = [v // px for v in vals] if px else None
            k += 1
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
    of each phi-power are summed by one `sum_of_products`."""
    terms = [(k if isinstance(k, Poly) else Poly.const(k), A)
             for k, A in terms if k and not A.is_zero()]
    den = {}
    for _, A in terms:
        for p, e in A.den.items():
            den[p] = max(den.get(p, 0), e)
    pairs = [(A.num, k.scale(A.c) * _power_product(den, A.den))
             for k, A in terms]
    width = max((len(n) for n, _ in pairs), default=0)
    num = [sum_of_products((n[j], lift) for n, lift in pairs if j < len(n))
           for j in range(width)]
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


def _row0_cofactors(M: list) -> list:
    """The signed row-0 cofactors of a 4x4 Poly matrix M: entry j is
    (-1)^j times the 3x3 minor of rows 1..3 omitting column j, so that
    det M = sum_j M[0][j] cof_j and, when rows 1..3 have rank 3, the
    cofactors span their kernel.  Each minor is expanded along row 3 over
    the six 2x2 minors of rows 1 and 2, which the four minors share; each
    minor is one `sum_of_products`."""
    m2 = {(j, k): sum_of_products([(M[1][j], M[2][k]), (-M[1][k], M[2][j])])
          for j, k in combinations(range(4), 2)}
    cofs = []
    for i in range(4):
        a, b, c = [j for j in range(4) if j != i]
        y = sum_of_products([(M[3][a], m2[(b, c)]), (-M[3][b], m2[(a, c)]),
                             (M[3][c], m2[(a, b)])])
        cofs.append(-y if i % 2 else y)
    return cofs


def _squarefree(f: Poly, v="l") -> dict:
    """Square-free decomposition {factor: multiplicity} of f, a primitive
    polynomial in at most two variables with positive leading coefficient:
    f is the product of factor^multiplicity, and the factors are primitive,
    square-free and pairwise coprime.

    Yun's algorithm in v (D. Y. Y. Yun, SYMSAC 1976): with a = gcd(f, f'),
    b = f/a and d = f'/a - b', each step splits off g = gcd(b, d), the
    product of the irreducible factors of multiplicity i, then continues
    with b/g and d/g - (b/g)'.  A factor free of v divides f' as often as f,
    so the steps drop it; that part, f over the product found, is
    decomposed again in its own variable.  The product is checked against
    f, and a mismatch raises ArithmeticError."""
    out = {}
    df = partial_derivative(f, v)
    a = poly_gcd(f, df)
    b = poly_div_exact(f, a)
    d = poly_div_exact(df, a) - partial_derivative(b, v)
    i = 1
    while not b.is_const():
        g = poly_gcd(b, d)
        if not g.is_const():
            out[g] = i
        b = poly_div_exact(b, g)
        d = poly_div_exact(d, g) - partial_derivative(b, v)
        i += 1
    rest = poly_div_exact(f, _power_product(out, {}))
    if not rest.is_const():
        (w,) = rest.vars_present()
        out.update(_squarefree(primitive_rat(rest)[1], w))
    if _power_product(out, {}) != f:
        raise ArithmeticError("square-free factors do not multiply back")
    return out


def _invert_mod_p(G: PhiQuot) -> PhiQuot:
    """X with G X = 1 modulo P, by Cramer's rule on the multiplication
    matrix M: the coefficients of X are the row-0 cofactors of M over
    det M, and the same cofactors give det M.  The determinant's primitive
    core, if not constant, enters X's denominator next to lambda and
    256 lambda - 27 as its square-free factors, each a prime with its
    multiplicity, so that a numerator can cancel one factor without the
    others."""
    phi_pq = PhiQuot([Poly(), Poly.one()], {}, ONE)
    cols = []
    phi_pow = _PQ_ONE
    for _ in range(4):
        cols.append(_pq_mul(G, phi_pow))
        phi_pow = _pq_mul(phi_pow, phi_pq)
    V = max(col.den.get(LAM, 0) for col in cols)
    M = [[Poly() for _ in range(4)] for _ in range(4)]
    for j, col in enumerate(cols):
        if set(col.den) - {LAM}:
            raise ArithmeticError(
                "unexpected denominator in the multiplication matrix")
        lift = LAM ** (V - col.den.get(LAM, 0))
        for r in range(min(4, len(col.num))):
            M[r][j] = (col.num[r] * lift).scale(col.c)
    cofs = _row0_cofactors(M)
    det = sum_of_products(zip(M[0], cofs))
    if det.is_zero():
        raise ArithmeticError("multiplication matrix is singular")
    # factor the determinant: lambda, 256 lambda - 27, a primitive core
    (core,), den = _strip_primes([det], {LAM: inf, SINGULAR: inf})
    r, core = primitive_rat(core)
    if not core.is_const():
        den.update(_squarefree(core))
    lamV = LAM ** V
    X = _pq_normalize([lamV * cof for cof in cofs], den, ONE / r)
    if not _pq_eq(_pq_mul(G, X), _PQ_ONE):
        raise ArithmeticError("modular inverse verification failed")
    return X


@lru_cache(maxsize=1)
def p0_quot() -> PhiQuot:
    """phi' = P0(lambda, phi): differentiating P(lambda, phi) = 0 gives
    phi' = -P_lambda / P_phi, computed as -P_lambda times the inverse of
    P_phi modulo P."""
    dP_dphi = pq_from_poly(partial_derivative(P_DEFINING, "f"))
    dP_dlam = pq_from_poly(partial_derivative(P_DEFINING, "l"))
    return _pq_mul(_pq_scale(dP_dlam, Rat(-1)), _invert_mod_p(dP_dphi))


@lru_cache(maxsize=1)
def q1_phi() -> PhiQuot:
    """Q1 with dF/dlambda = Q1 F along phi(lambda): the reduction of
    (d_lambda F^2 + P0 d_phi F^2) (2 F^2)^-1, the total lambda derivative
    of F^2 over 2 F^2, with the inverse taken modulo P."""
    fsq = f_squared()
    inv2G = _invert_mod_p(_pq_scale(pq_from_poly(fsq), Rat(2)))
    dfsq = _pq_sum([
        (ONE, pq_from_poly(partial_derivative(fsq, "l"))),
        (ONE, _pq_mul(p0_quot(), pq_from_poly(partial_derivative(fsq, "f"))))])
    return _pq_mul(dfsq, inv2G)


@lru_cache(maxsize=None)
def q_tower(kmax: int) -> tuple:
    """(Q_0, ..., Q_kmax) with d^iF/dlambda^i = Q_i F, phi-degree <= 3.

    Each tower extends the cached q_tower(kmax - 1) by one step.  Towers
    are tuples, so neither that step nor a caller can change a cached one."""
    if not 1 <= kmax <= TOWER_MAX:
        raise ValueError(f"q_tower supports 1 <= kmax <= {TOWER_MAX}")
    q1 = q1_phi()
    if kmax == 1:
        return (_PQ_ONE, q1)
    tower = q_tower(kmax - 1)
    qi = tower[-1]
    qnext = _pq_sum([(ONE, _pq_dlam(qi)),
                     (ONE, _pq_mul(_pq_dphi(qi), p0_quot())),
                     (ONE, _pq_mul(qi, q1))])
    return tower + (qnext,)


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


def f_series(S: int, L: int) -> Series2:
    """F(s, lambda, phi(lambda)) as a truncated series (principal sqrt)."""
    phi = Series2(phi_series(L).coeffs, S, L)
    fsq = poly_eval_series(f_squared(), phi, S, L)
    return fsq.sqrt()


def tower_oracle(i_max: int, S: int, L: int) -> Report:
    """Check d^iF/dlambda^i = Q_i(s,lambda,phi(lambda)) F as truncated
    series; accuracy lost to differentiation and lambda-denominators is
    absorbed by a widened internal cap."""
    t0 = time.perf_counter()
    params = {"i_max": i_max, "s_cap": S, "lambda_cap": L}
    if not 1 <= i_max <= TOWER_MAX:
        return inconclusive("tower_oracle", params,
                            f"i_max {i_max} is outside 1..{TOWER_MAX}", 0, t0)
    tower = q_tower(i_max)
    slack = max(q.den.get(LAM, 0) for q in tower)
    Lw = L + i_max + slack
    phi = Series2(phi_series(Lw).coeffs, S, Lw)
    F = f_series(S, Lw)
    dF = F
    cases = 0
    for i in range(1, i_max + 1):
        dF = lambda_derivative(dF)
        qi = pq_eval_series(tower[i], phi, S, Lw)
        if dF.truncate(S, L) != (qi * F).truncate(S, L):
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
        the cached vectors, both tables would outlive their readers and
        raise the peak memory of a holonomic run."""
        parts = {}
        for i in self.indices:
            for m, c in self.entry(i).terms.items():
                parts.setdefault((i, m[2]), {})[m[:2] + (0,) + m[3:]] = c
        return {(i, k): Poly(terms).scale(factorial(k))
                for (i, k), terms in parts.items()}


def _kernel_vector(cols: list) -> list:
    """Kernel vector of the 4x5 phi-coefficient matrix of the PhiQuot
    columns Q_0/0!, ..., Q_4/4!, whose column 0 is a nonzero constant,
    i.e. a multiple of e_0.

    With N the numerator matrix and k its (0, 0) entry, the fraction-free
    Cramer rule then needs only the four signed 3x3 minors y_j of rows 1..3
    over columns 1..4, the row-0 cofactors of columns 1..4 from
    `_row0_cofactors`: components 1..4 of the kernel of N are y_1..y_4,
    and row 0 gives component 0 as -(N[0][1] y_1 + ... + N[0][4] y_4) / k.
    All four minors vanishing would mean rows 1..3 have rank < 3, i.e.
    kernel dimension > 1, and is rejected.  The components are then
    rescaled by the column denominators.

    The numerators that `_pq_normalize` leaves are content-free integer
    polynomials, so every product in the minors runs on integers (see
    `Poly.__mul__`), several times faster than on rationals.  The (large)
    common content of the components coming from the column denominators
    is removed in exponent space by trial division by the primes of those
    denominators.  Those primes are the square-free factors of the
    inversion core, so stripping them leaves the components no common
    factor, and the later generic gcd finds a constant.
    The minors are stripped of those primes first, and component 0 is
    summed from their cores times only the prime powers above the least
    ones: the same polynomial, divided by a known prime power, from
    products a few times smaller."""
    head = cols[0]
    if head.den or len(head.num) != 1 or not head.num[0].is_const() \
            or head.num[0].is_zero():
        raise ArithmeticError("column 0 is not a nonzero constant")
    N = [[col.num[r] if r < len(col.num) else Poly() for col in cols]
         for r in range(4)]
    ys = [Poly()] + _row0_cofactors([row[1:] for row in N])
    if all(y.is_zero() for y in ys):
        raise ArithmeticError(
            "all 3x3 minors of rows 1..3 vanish: kernel dimension exceeds 1")
    primes = dict.fromkeys((p for col in cols for p in col.den), inf)

    def strip(d: Poly) -> tuple:
        if d.is_zero():
            return d, {}
        (core,), exps = _strip_primes([d], primes)
        return core, exps

    def least() -> dict:
        return {p: min(e.get(p, 0) for core, e in stripped
                       if not core.is_zero()) for p in primes}

    stripped = [strip(y) for y in ys]
    low = least()
    x0 = sum_of_products((m, core * _power_product(exps, low))
                         for m, (core, exps) in zip(N[0][1:], stripped[1:]))
    core, exps = strip(x0.scale(-ONE / head.num[0].const_value()))
    stripped[0] = (core, {p: exps.get(p, 0) + e for p, e in low.items()})
    # undo the column scaling: the value matrix has columns c_i N_i / D_i,
    # so component i picks up D_i / c_i; track the prime powers of D_i and
    # of the minors themselves as exponent vectors and drop their common part
    for (core, exps), col in zip(stripped, cols):
        for p, e in col.den.items():
            exps[p] = exps.get(p, 0) + e
    base = least()
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


@lru_cache(maxsize=1)
def find_R() -> DependencyVector:
    """Dependency among Q_0/0!, ..., Q_4/4!: the rank-4 relation.

    Q_0 = 1 is the unit column, so `_kernel_vector` reads R_1..R_4 off the
    3x3 minors of the phi^1..phi^3 rows of Q_1..Q_4 and R_0 off the phi^0
    row; it raises ArithmeticError if those rows have rank below 3, i.e. if
    the kernel is not a line.  The components come back with no common
    factor, since the tower's denominator primes are square-free and
    `_kernel_vector` strips them, so the gcd in `clear_and_normalize` stops
    at a constant; `_band_vector` clears the vector of its content and fixes
    its sign by the band R_{1,0}."""
    tower = q_tower(4)
    cols = [_pq_scale(tower[i], Rat(1, factorial(i))) for i in range(5)]
    return _band_vector("R", 0, _kernel_vector(cols))


# sample points (s, lambda) for the rank witness of find_Rhat
_RANK_POINTS = ((2, 1), (3, 2), (5, 7), (11, 13))


def _rank4_witness(cols: list):
    """A sample point (s, lambda) certifying that the 4 x len(cols)
    phi-coefficient matrix of the PhiQuot columns has rank 4 over
    Q(s, lambda), or None.

    At a point where no prime of any column denominator vanishes, the value
    matrix is the numerator matrix times the nonzero diagonal c_j / D_j, so
    both have the rank of the numerator matrix evaluated there, which
    `rank` computes exactly.  Rank 4 at the point means some 4x4 minor is a
    nonzero rational function.  None means no sample point gave rank 4:
    the rank is then taken to be below 4."""
    for a, b in _RANK_POINTS:
        def at(p: Poly):
            return _value_at_point(p.terms, (0, a, b, 0, 0, 0))

        if any(not at(p) for col in cols for p in col.den):
            continue
        vals = [[at(col.num[r]) if r < len(col.num) else 0 for col in cols]
                for r in range(4)]
        if rank(vals) == 4:
            return a, b
    return None


@lru_cache(maxsize=1)
def find_Rhat() -> DependencyVector:
    """Dependency among Q_1/1!, ..., Q_5/5! (one derivative deeper),
    derived from R rather than from minors of the Q_1..Q_5 matrix.

    With r_i = R_i/i!, R says sum_{i<=4} r_i F^(i) = 0.  Its lambda
    derivative is sum_{j<=5} (r_j' + r_{j-1}) F^(j) = 0 (r_{-1} = r_5 = 0);
    r_0 times that minus r_0' times R eliminates F and leaves
    sum_{j=1..5} c_j F^(j) = 0 with c_j = r_0 (r_j' + r_{j-1}) - r_0' r_j.
    As F^(j) = Q_j F, the vector (j! c_j) is a kernel vector of the columns
    Q_j/j!, and it is nonzero: c_5 = r_0 r_4, where r_4 != 0 because a
    relation among Q_0..Q_3 alone would drop the rank of Q_0..Q_4 below 4,
    which find_R rules out.  On the integer entries of R,
    j! c_j = R_0 (R_j' + j R_{j-1}) - R_0' R_j, one `sum_of_products`.

    Uniqueness: the elimination needs R_0 != 0, and the kernel is a line
    only if Q_1..Q_5 have rank 4, which `_rank4_witness` certifies by an
    exact evaluation.  Either failing raises ArithmeticError.  The line is
    then normalized exactly as find_R normalizes its vector.

    The common factor comes from one small gcd.  A common factor p of the
    c_j that is prime to r_0 divides c_5 = r_0 r_4, so p | r_4, and
    c_4 = r_0 (r_4' + r_3) - r_0' r_4, so p | r_4' + r_3 =
    (R_4' + 4 R_3) / 4!.  Hence p divides H = gcd(R_4, R_4' + 4 R_3).  The
    vector is divided by H without its monomial content, or, if that
    division fails, by the gcd of H and the entries (`strip_gcd`); the gcd
    of the generic normalization then certifies that no common factor is
    left, one shared with r_0 included."""
    R = find_R().entries + [Poly()]
    if R[0].is_zero():
        raise ArithmeticError("R_0 = 0: F cannot be eliminated from R")
    if _rank4_witness(q_tower(5)[1:6]) is None:
        raise ArithmeticError("Q_1..Q_5 have rank below 4 at every sample "
                              "point: Rhat is not certified unique")
    dR = [partial_derivative(p, "l") for p in R]
    # j! c_j = R_0 d_j - R_0' R_j with d_j = R_j' + j R_{j-1}
    d = {j: dR[j] + R[j - 1].scale(j) for j in range(1, 6)}
    vec = [sum_of_products([(R[0], d[j]), (-dR[0], R[j])])
           for j in range(1, 6)]
    H = poly_gcd(R[4], d[4])
    low = tuple(map(min, zip(*H.terms)))
    if any(low):
        H = poly_div_exact(H, Poly({low: 1}))
    try:
        vec = [poly_div_exact(p, H) for p in vec]
    except ArithmeticError:
        vec = strip_gcd(H, vec)
    return _band_vector("Rhat", 1, vec)


def dependency_report(kind: str) -> Report:
    """Structural checks on the dependency vector of the given kind."""
    t0 = time.perf_counter()
    params = {"kind": kind}
    cases = 0
    if kind not in BAND_FACTOR:
        return failed("dependency", params,
                      f"unknown kind {kind!r}: expected 'R' or 'Rhat'",
                      cases, t0)
    try:
        dv = find_R() if kind == "R" else find_Rhat()
    except ArithmeticError as exc:
        return failed("dependency", params, str(exc), cases, t0)
    tower = q_tower(dv.indices[-1])
    shift = dv.shift

    # re-expansion: sum R_i Q_i / i! = 0 identically mod P
    acc = _pq_sum((dv.entry(i).scale(Rat(1, factorial(i))), tower[i])
                  for i in dv.indices)
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


def b_recursion(L: int) -> tuple:
    """Rebuild b_0..b_L from the two dependency recursions.

    At order l, the coefficient R_ik of a vector with shift h meets b_m,
    m = l + i - k, with weight C(l, k); the entries with m = l + h, its band,
    determine b_{l+h} by an exact division, as the band is a scalar multiple
    of its factor: s - 1 for R, 3s + 1 for Rhat.  A nonzero remainder would
    be a counterexample and is reported as such, and so is an entry below
    the band (m > l + h).  The two routes must agree wherever both apply.
    With L < 1 there is no b_l to derive, and the result is inconclusive.
    """
    t0 = time.perf_counter()
    params = {"orders": L}
    if L < 1:
        return BSeq("recursion", L), inconclusive(
            "b_recursion", params,
            f"orders {L} leave no b_l to derive; need orders >= 1", 0, t0)
    s = Poly.var("s")
    b = [Poly.one(), 3 * s + 1]
    cases = 0
    # the recursion identity pairs b^{(i)} with R_ik / i!: the stored vector
    # is normalized against the columns Q_i/i!, while the lambda-coefficient
    # comparison expands sum_i R_i d^iF/dlambda^i with no factorial on the
    # derivative
    routes = [(dv, {(i, k): p.scale(Rat(1, factorial(i)))
                    for (i, k), p in dv.table().items()})
              for dv in (find_R(), find_Rhat())]

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
    """gcd(s-1, 3s+1) = 1, the hypothesis joining the two recursions."""
    t0 = time.perf_counter()
    s = Poly.var("s")
    g = poly_gcd(s - 1, 3 * s + 1)
    if g == Poly.one():
        return passed("coprimality", {}, 1, t0)
    return failed("coprimality", {}, f"gcd = {poly_to_str(g)}", 1, t0)
