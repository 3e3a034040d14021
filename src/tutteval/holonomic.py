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
of powers of a small registered prime set (lambda, 256 lambda - 27, and the
core of the inversion determinant).  Cancellation then needs only trial
exact divisions by known primes, never a general gcd.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .exactnum import ONE, Rat, ZERO, binomial, factorial, rat_gcd
from .polyring import (Poly, _eval_var, clear_and_normalize,
                       partial_derivative, poly_div_exact, poly_gcd,
                       poly_parse, poly_to_str, rat_content)
from .report import Report, failed, passed
from .series import Series2
from .tutte import phi_series

TOWER_MAX = 6  # rational-function swell beyond this exceeds desk scale

LAM = Poly.var("l")
PHI = Poly.var("f")
P_DEFINING = PHI - LAM * (1 + PHI) ** 4

# the closed form of phi', over the denominator (256 l - 27) l: the
# registered primes _PRIMES[0] = l and _PRIMES[1] = 256 l - 27
P0_EXPECTED_NUM = poly_parse("12*l*f^3 + 52*l*f^2 + 4*l*f - 36*l + 9*f")
P0_EXPECTED_DEN = {0: 1, 1: 1}


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

_PRIMES: list = [LAM, poly_parse("256*l - 27")]


def _register_prime(p: Poly) -> int:
    for i, q in enumerate(_PRIMES):
        if q == p:
            return i
    _PRIMES.append(p)
    return len(_PRIMES) - 1


@dataclass
class PhiQuot:
    """c * (num[0] + num[1] phi + num[2] phi^2 + num[3] phi^3) / den,
    den the product of _PRIMES[i]^e over (i, e) in den.items()."""

    num: list          # up to 4 Poly
    den: dict          # prime index -> positive exponent
    c: object = ONE    # Rat scalar

    def is_zero(self) -> bool:
        return all(n.is_zero() for n in self.num)

    def den_poly(self) -> Poly:
        d = Poly.one()
        for i, e in self.den.items():
            d = d * _PRIMES[i] ** e
        return d


def _pq_normalize(num: list, den: dict, c) -> PhiQuot:
    num = [n if isinstance(n, Poly) else Poly.const(n) for n in num]
    while num and num[-1].is_zero():
        num.pop()
    if not num:
        return PhiQuot([], {}, ONE)
    den = {i: e for i, e in den.items() if e > 0}
    # strip known prime factors shared by every numerator entry
    for i in sorted(den):
        p = _PRIMES[i]
        while den.get(i, 0) > 0:
            try:
                quots = [poly_div_exact(n, p) if not n.is_zero() else n
                         for n in num]
            except ArithmeticError:
                break
            num = quots
            den[i] -= 1
        if den.get(i, 0) == 0:
            den.pop(i, None)
    # pull the rational content into the scalar
    r = ZERO
    for n in num:
        for v in n.terms.values():
            r = rat_gcd(r, v)
    if r and r != ONE:
        num = [n.scale(ONE / r) for n in num]
        c = c * r
    return PhiQuot(num, den, c)


_PQ_ONE = PhiQuot([Poly.one()], {}, ONE)


def _reduce_top(num: list) -> tuple:
    """Reduce a phi-coefficient list modulo P = phi - lambda(1+phi)^4 via
    phi^k = phi^{k-3}/lambda - phi^{k-4}(1 + 4 phi + 6 phi^2 + 4 phi^3).
    Returns (list of <= 4 Poly, v) with value = sum / lambda^v."""
    num = list(num)
    v = 0
    while True:
        while num and num[-1].is_zero():
            num.pop()
        if len(num) <= 4:
            break
        k = len(num) - 1
        ctop = num.pop()
        num = [n * LAM for n in num]
        v += 1
        num[k - 3] = num[k - 3] + ctop
        for j, bc in ((0, 1), (1, 4), (2, 6), (3, 4)):
            num[k - 4 + j] = num[k - 4 + j] - ctop * LAM * bc
    return num, v


def pq_from_poly(p: Poly) -> PhiQuot:
    num, v = _reduce_top(p.as_univar("f"))
    return _pq_normalize(num, {0: v}, ONE)


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
    for i, e in B.den.items():
        den[i] = den.get(i, 0) + e
    den[0] = den.get(0, 0) + v
    return _pq_normalize(num, den, A.c * B.c)


def _pq_add(A: PhiQuot, B: PhiQuot) -> PhiQuot:
    if A.is_zero():
        return B
    if B.is_zero():
        return A
    den = {}
    for i in set(A.den) | set(B.den):
        den[i] = max(A.den.get(i, 0), B.den.get(i, 0))
    sa = Poly.const(A.c)
    sb = Poly.const(B.c)
    for i, e in den.items():
        sa = sa * _PRIMES[i] ** (e - A.den.get(i, 0))
        sb = sb * _PRIMES[i] ** (e - B.den.get(i, 0))
    num = []
    for j in range(max(len(A.num), len(B.num))):
        a = A.num[j] * sa if j < len(A.num) else Poly()
        b = B.num[j] * sb if j < len(B.num) else Poly()
        num.append(a + b)
    return _pq_normalize(num, den, ONE)


def _pq_scale(A: PhiQuot, q) -> PhiQuot:
    if isinstance(q, Poly):
        return _pq_normalize([n * q for n in A.num], dict(A.den), A.c)
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
    R = Poly.one()
    for i in A.den:
        R = R * _PRIMES[i]
    T = Poly()
    for i, e in A.den.items():
        part = partial_derivative(_PRIMES[i], "l").scale(Rat(e))
        for j in A.den:
            if j != i:
                part = part * _PRIMES[j]
        T = T + part
    num = [partial_derivative(n, "l") * R - n * T for n in A.num]
    den = {i: e + 1 for i, e in A.den.items()}
    return _pq_normalize(num, den, A.c)


def _pq_eq(A: PhiQuot, B: PhiQuot) -> bool:
    return _pq_add(A, _pq_scale(B, Rat(-1))).is_zero()


# -- the derivative tower --------------------------------------------------


def f_squared() -> Poly:
    """F^2 as a polynomial in s, lambda, phi."""
    s = Poly.var("s")
    one_ls = 1 + LAM * s
    B = 1 + LAM * s + s + one_ls * PHI * (1 - PHI - PHI * PHI)
    return B * B - 4 * s * one_ls * one_ls


def _det(M: list) -> Poly:
    """Determinant of a small Poly matrix by cofactor expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    out = Poly()
    sign = 1
    for j in range(n):
        if not M[0][j].is_zero():
            minor = [[M[i][k] for k in range(n) if k != j]
                     for i in range(1, n)]
            term = M[0][j] * _det(minor)
            out = out + (term if sign > 0 else -term)
        sign = -sign
    return out


def _invert_mod_p(G: PhiQuot) -> PhiQuot:
    """X with G X = 1 modulo P, by Cramer's rule on the multiplication
    matrix; the determinant's primitive core joins the prime registry."""
    phi_pq = PhiQuot([Poly(), Poly.one()], {}, ONE)
    cols = []
    phi_pow = _PQ_ONE
    for _ in range(4):
        cols.append(_pq_mul(G, phi_pow))
        phi_pow = _pq_mul(phi_pow, phi_pq)
    V = max(col.den.get(0, 0) for col in cols)
    M = [[Poly() for _ in range(4)] for _ in range(4)]
    for j, col in enumerate(cols):
        if set(col.den) - {0}:
            raise ArithmeticError(
                "unexpected denominator in the multiplication matrix")
        lift = LAM ** (V - col.den.get(0, 0))
        for r in range(min(4, len(col.num))):
            M[r][j] = (col.num[r] * lift).scale(col.c)
    det = _det(M)
    if det.is_zero():
        raise ArithmeticError("multiplication matrix is singular")
    # factor the determinant over the registry
    r = rat_content(det)
    core = det.scale(ONE / r)
    den = {}
    for i in (0, 1):
        while True:
            try:
                core = poly_div_exact(core, _PRIMES[i])
            except ArithmeticError:
                break
            den[i] = den.get(i, 0) + 1
    if core.is_const():
        r = r * core.const_value()
    else:
        if core.leading_coeff() < 0:
            core = -core
            r = -r
        den[_register_prime(core)] = 1
    lamV = LAM ** V
    num = []
    for j in range(4):
        minor = [[M[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        cof = lamV * _det(minor)
        num.append(cof if j % 2 == 0 else -cof)
    X = _pq_normalize(num, den, ONE / r)
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
    P1 + P0 P2, where P_1, P_2 are the logarithmic derivatives of F^2 with
    the 1/(2 F^2) factor inverted modulo P."""
    fsq = f_squared()
    inv2G = _invert_mod_p(_pq_scale(pq_from_poly(fsq), Rat(2)))
    P1 = _pq_mul(pq_from_poly(partial_derivative(fsq, "l")), inv2G)
    P2 = _pq_mul(pq_from_poly(partial_derivative(fsq, "f")), inv2G)
    return _pq_add(P1, _pq_mul(p0_quot(), P2))


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
    qnext = _pq_add(_pq_add(_pq_dlam(qi), _pq_mul(_pq_dphi(qi), p0_quot())),
                    _pq_mul(qi, q1))
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
    if v == 0:
        return A
    shifted = {}
    for (b, c), val in A.coeffs.items():
        if c < v:
            raise ArithmeticError(
                "series not divisible by the lambda power of the denominator")
        shifted[(b, c - v)] = val
    return Series2(shifted, A.S, A.L)


def pq_eval_series(A: PhiQuot, phi: Series2, S: int, L: int) -> Series2:
    acc = Series2.zero(S, L)
    for n in reversed(A.num):
        acc = acc * phi + poly_eval_series(n, phi, S, L)
    den = Series2.const(1, S, L)
    for i, e in A.den.items():
        if i:
            den = den * poly_eval_series(_PRIMES[i], phi, S, L) ** e
    acc = acc * den.inverse()
    return _lambda_shift(acc, A.den.get(0, 0)).scale(A.c)


def lambda_derivative(A: Series2) -> Series2:
    return Series2({(b, c - 1): v * c for (b, c), v in A.coeffs.items() if c},
                   A.S, A.L)


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
    tower = q_tower(i_max)
    slack = max(q.den.get(0, 0) for q in tower)
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


@dataclass
class DependencyVector:
    """A cleared, content-free kernel vector among the Q_i/i!."""

    kind: str                  # "R" or "Rhat"
    offset: int                # index of entries[0]
    entries: list = field(default_factory=list)  # Poly in (s, lambda)

    def entry(self, i: int) -> Poly:
        return self.entries[i - self.offset]

    def coeff(self, i: int, k: int) -> Poly:
        """R_{ik}: k! times the lambda^k coefficient, a polynomial in s."""
        p = self.entry(i)
        out = {}
        for m, c in p.terms.items():
            if m[2] == k:
                out[m[:2] + (0,) + m[3:]] = c
        return Poly(out).scale(Rat(factorial(k)))

    def lambda_degree(self, i: int) -> int:
        return self.entry(i).degree("l")


def weighted_degree(p: Poly) -> int:
    """max over monomials of 2 deg_s - 2 deg_lambda (weights s:2, lambda:-2)."""
    if p.is_zero():
        return -(10 ** 9)
    return max(2 * m[1] - 2 * m[2] for m in p.terms)


def _strip_registered(p: Poly) -> tuple:
    """Divide out every registered prime factor of p; returns the cofactor
    and the exponent vector removed."""
    exps = {}
    for i in range(len(_PRIMES)):
        q = _PRIMES[i]
        while True:
            try:
                p = poly_div_exact(p, q)
            except ArithmeticError:
                break
            exps[i] = exps.get(i, 0) + 1
    return p, exps


def _kernel_vector(cols: list) -> list:
    """Kernel vector of the 4x5 phi-coefficient matrix of the given PhiQuot
    columns, by the fraction-free Cramer rule: component i is the signed
    maximal minor omitting column i, applied to the numerator matrix, then
    rescaled by the column denominators.  All five minors vanishing would
    mean rank < 4, i.e. kernel dimension > 1, and is rejected; fraction
    arithmetic on large minors (which a Bareiss back-substitution would
    need) is avoided entirely.

    The five minors are assembled from shared 2x2 and 3x3 subminors.  The
    numerators that `_pq_normalize` leaves are content-free integer
    polynomials, so every product in the minors runs on integers (see
    `Poly.__mul__`), several times faster than on rationals; the results
    come back with rational coefficients, ready for exact division.  The
    (large) common content of the minors coming from the column
    denominators is then removed in exponent space by trial division by
    the registered primes, so the later generic gcd only sees the small
    residue."""
    n = len(cols)
    N = [[col.num[r] if r < len(col.num) else Poly() for col in cols]
         for r in range(4)]
    m2 = {}
    for j, k in combinations(range(n), 2):
        m2[(j, k)] = N[0][j] * N[1][k] - N[0][k] * N[1][j]
    m3 = {}
    for a, b, c in combinations(range(n), 3):
        m3[(a, b, c)] = (N[2][a] * m2[(b, c)] - N[2][b] * m2[(a, c)]
                         + N[2][c] * m2[(a, b)])
    minors = []
    for i in range(n):
        cs = [j for j in range(n) if j != i]
        det = Poly()
        for t in range(4):
            entry = N[3][cs[t]]
            if entry.is_zero():
                continue
            term = entry * m3[tuple(cs[:t] + cs[t + 1:])]
            det = det + (term if (3 + t) % 2 == 0 else -term)
        if i % 2:
            det = -det
        minors.append(det)
    if all(d.is_zero() for d in minors):
        raise ArithmeticError(
            "all maximal minors vanish: kernel dimension exceeds 1")
    # undo the column scaling: the value matrix has columns c_i N_i / D_i,
    # so component i picks up D_i / c_i; track the prime powers of D_i and
    # of the minors themselves as exponent vectors and drop their common part
    stripped = []
    for i, d in enumerate(minors):
        core, exps = (_strip_registered(d) if not d.is_zero() else (d, {}))
        for j, e in cols[i].den.items():
            exps[j] = exps.get(j, 0) + e
        stripped.append((core, exps))
    live = [e for c, e in stripped if not c.is_zero()]
    base = {j: min(e.get(j, 0) for e in live)
            for j in set(k for e in live for k in e)}
    vec = []
    for i, (core, exps) in enumerate(stripped):
        lift = Poly.one()
        for j, e in exps.items():
            if e - base.get(j, 0) > 0:
                lift = lift * _PRIMES[j] ** (e - base.get(j, 0))
        vec.append((core * lift).scale(ONE / cols[i].c))
    return vec


def _anchor_sign(entries: list, pos: int, factor: Poly) -> list:
    """Flip the global sign so the lambda^0 coefficient of entries[pos] is a
    positive multiple of the given factor."""
    lead = Poly({m: c for m, c in entries[pos].terms.items() if m[2] == 0})
    if lead.is_zero():
        return entries
    try:
        c = poly_div_exact(lead, factor)
    except ArithmeticError:
        return entries
    if c.is_const() and c.const_value() < 0:
        return [-p for p in entries]
    return entries


@lru_cache(maxsize=1)
def find_R() -> DependencyVector:
    """Dependency among Q_0/0!, ..., Q_4/4!: the rank-4 relation."""
    tower = q_tower(4)
    cols = [_pq_scale(tower[i], Rat(1, factorial(i))) for i in range(5)]
    entries = clear_and_normalize(_kernel_vector(cols), sign_entry=0)
    entries = _anchor_sign(entries, 1, Poly.var("s") - 1)
    return DependencyVector("R", 0, entries)


# sample points (s, lambda) for the rank witness of find_Rhat
_RANK_POINTS = ((2, 1), (3, 2), (5, 7), (11, 13))


def _rank4_witness(cols: list):
    """A certificate that the 4 x len(cols) phi-coefficient matrix of the
    PhiQuot columns has rank 4 over Q(s, lambda), or None.

    The certificate is a sample point (s, lambda) at which no registered
    prime of any column denominator vanishes, together with 4 column
    indices whose minor of the numerator matrix is nonzero there.  At such
    a point the value matrix is the numerator matrix times the nonzero
    diagonal c_j / D_j, so its minor is nonzero as a rational function and
    the rank is 4.  None means no sample point gave a nonzero minor: the
    rank is then taken to be below 4."""
    for a, b in _RANK_POINTS:
        def at(p: Poly) -> Poly:
            return _eval_var(_eval_var(p, "s", a), "l", b)

        if any(at(_PRIMES[i]).is_zero() for col in cols for i in col.den):
            continue
        vals = [[at(col.num[r]) if r < len(col.num) else Poly()
                 for col in cols] for r in range(4)]
        for cs in combinations(range(len(cols)), 4):
            det = _det([[vals[r][j] for j in cs] for r in range(4)])
            if not det.is_zero():
                return (a, b), cs
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
    which find_R rules out.

    Uniqueness: the elimination needs R_0 != 0, and the kernel is a line
    only if Q_1..Q_5 have rank 4, which `_rank4_witness` certifies by an
    exact evaluation.  Either failing raises ArithmeticError.  The line is
    then normalized exactly as find_R normalizes its vector.  Any common
    factor of the c_j divides c_5 = r_0 r_4, so it is stripped by gcds
    against the small R_0 and then R_4 before the generic normalization
    (whose own gcd then has nothing left to find)."""
    R = find_R()
    if R.entries[0].is_zero():
        raise ArithmeticError("R_0 = 0: F cannot be eliminated from R")
    if _rank4_witness(q_tower(5)[1:6]) is None:
        raise ArithmeticError("Q_1..Q_5 have rank below 4 at every sample "
                              "point: Rhat is not certified unique")
    r = [p.scale(Rat(1, factorial(i))) for i, p in enumerate(R.entries)]
    r.append(Poly())
    dr0 = partial_derivative(r[0], "l")
    vec = [(r[0] * (partial_derivative(r[j], "l") + r[j - 1])
            - dr0 * r[j]).scale(Rat(factorial(j))) for j in range(1, 6)]
    for small in (R.entries[0], R.entries[4]):
        g = small
        for p in vec:
            g = poly_gcd(g, p)
            if g.is_const():
                break
        if not g.is_const():
            vec = [poly_div_exact(p, g) for p in vec]
    entries = clear_and_normalize(vec, sign_entry=0)
    entries = _anchor_sign(entries, 1, 3 * Poly.var("s") + 1)
    return DependencyVector("Rhat", 1, entries)


def dependency_report(kind: str) -> Report:
    """Structural checks on the dependency vector of the given kind."""
    t0 = time.perf_counter()
    params = {"kind": kind}
    cases = 0
    if kind not in ("R", "Rhat"):
        return failed("dependency", params,
                      f"unknown kind {kind!r}: expected 'R' or 'Rhat'",
                      cases, t0)
    try:
        dv = find_R() if kind == "R" else find_Rhat()
    except ArithmeticError as exc:
        return failed("dependency", params, str(exc), cases, t0)
    if kind == "R":
        tower = q_tower(4)
        idxs = range(5)
        factor = Poly.var("s") - 1
        shift = 1
        anchor_range = range(1, 5)
    else:
        tower = q_tower(5)
        idxs = range(1, 6)
        factor = 3 * Poly.var("s") + 1
        shift = 2
        anchor_range = range(2, 6)

    # re-expansion: sum R_i Q_i / i! = 0 identically mod P
    acc = PhiQuot([], {}, ONE)
    for i in idxs:
        term = _pq_scale(_pq_scale(tower[i], dv.entry(i)),
                         Rat(1, factorial(i)))
        acc = _pq_add(acc, term)
    if not acc.is_zero():
        return failed("dependency", params, "re-expansion is nonzero",
                      cases, t0)
    cases += 1

    # vanishing below the band
    for i in idxs:
        for k in range(0, i - shift):
            if not dv.coeff(i, k).is_zero():
                return failed("dependency", params,
                              f"coefficient ({i},{k}) should vanish",
                              cases, t0)
            cases += 1

    # band coefficients: positive scalar multiples of the common factor
    scalars = []
    for i in anchor_range:
        lead = dv.coeff(i, i - shift)
        try:
            c = poly_div_exact(lead, factor)
        except ArithmeticError:
            return failed("dependency", params,
                          f"({i},{i - shift}) is not a multiple of "
                          f"{poly_to_str(factor)}", cases, t0)
        if not c.is_const() or c.const_value() <= 0:
            return failed("dependency", params,
                          f"({i},{i - shift}) is not a positive scalar "
                          f"multiple of {poly_to_str(factor)}", cases, t0)
        scalars.append(c.const_value())
        cases += 1

    if kind == "Rhat":
        for i in idxs:
            wd = weighted_degree(dv.entry(i))
            if wd > 2 * (3 - i):
                return failed("dependency", params,
                              f"weighted degree of entry {i} is {wd} > "
                              f"{2 * (3 - i)}", cases, t0)
            cases += 1

    rep = passed("dependency", params, cases, t0)
    rep.witness = "band scalars: " + ", ".join(str(c) for c in scalars)
    return rep


# -- the b sequence --------------------------------------------------------


@dataclass
class BSeq:
    """b_0..b_L as polynomials in s, with provenance."""

    source: str  # "direct" | "recursion"
    bl: list = field(default_factory=list)

    def degree_report(self) -> Report:
        t0 = time.perf_counter()
        params = {"source": self.source, "orders": len(self.bl) - 1}
        for l, p in enumerate(self.bl):
            if p.degree("s") > l:
                return failed("b_degree", params,
                              f"deg b_{l} = {p.degree('s')} > {l}", l, t0)
        return passed("b_degree", params, len(self.bl), t0)


def b_direct(S: int, L: int) -> BSeq:
    """Expand b = s + (1+lambda s) sqrt((1+r)^2 - 4s) and slice by lambda
    order.  Needs S >= L + 2 so each b_l fits under the s cap."""
    from .template import base_series

    if S < L + 2:
        raise ValueError(f"s cap {S} too small for lambda cap {L}")
    env = base_series(S, L)
    b = env["b"]
    out = []
    for l in range(L + 1):
        p = b.lambda_slice(l).scale(Rat(factorial(l)))
        if p.degree("s") >= S:
            raise ArithmeticError(
                f"b_{l} saturates the s cap {S}; result inconclusive")
        out.append(p)
    return BSeq("direct", out)


def b_recursion(L: int) -> tuple:
    """Rebuild b_0..b_L from the two dependency recursions.

    Every step divides exactly by a scalar multiple of (s-1) (R route) or
    (3s+1) (Rhat route); a nonzero remainder would be a counterexample and
    is reported as such.  The two routes must agree wherever both apply.
    """
    t0 = time.perf_counter()
    params = {"orders": L}
    R = find_R()
    Rhat = find_Rhat()
    s = Poly.var("s")
    b = [Poly.one(), 3 * s + 1]
    cases = 0

    def r_coeff(dv, i, k):
        # the recursion identity pairs b^{(i)} with entry(i)/i!: the stored
        # vector is normalized against the columns Q_i/i!, while the
        # lambda-coefficient comparison below expands sum_i R_i d^iF/dlambda^i
        # with no factorial on the derivative
        if k < 0 or k > dv.lambda_degree(i):
            return Poly()
        return dv.coeff(i, k).scale(Rat(1, factorial(i)))

    for l in range(0, L):
        # (s-1) route: determines b_{l+1}
        lead = Poly()
        for i in range(1, 5):
            lead = lead + r_coeff(R, i, i - 1).scale(binomial(l, l + 1 - i))
        rhs = r_coeff(R, 0, l) * s
        for m in range(0, l + 1):
            for i in range(0, 5):
                co = binomial(l, m - i)
                if not co:
                    continue
                rk = r_coeff(R, i, l + i - m)
                if not rk.is_zero():
                    rhs = rhs - rk.scale(co) * b[m]
        try:
            b_next = poly_div_exact(rhs, lead)
        except ArithmeticError:
            rep = failed("b_recursion", params,
                         f"(s-1) route: inexact division at l={l}", cases, t0)
            return BSeq("recursion", b), rep
        if l + 1 < len(b):
            if b[l + 1] != b_next:
                rep = failed("b_recursion", params,
                             f"(s-1) route disagrees at b_{l + 1}", cases, t0)
                return BSeq("recursion", b), rep
        else:
            b.append(b_next)
        cases += 1

        # (3s+1) route: determines b_{l+2} independently
        if l + 2 > L:
            continue
        lead2 = Poly()
        for i in range(2, 6):
            lead2 = lead2 + r_coeff(Rhat, i, i - 2).scale(
                binomial(l, l + 2 - i))
        rhs2 = Poly()
        for m in range(0, min(l + 2, len(b))):
            for i in range(1, 6):
                co = binomial(l, m - i)
                if not co:
                    continue
                rk = r_coeff(Rhat, i, l + i - m)
                if not rk.is_zero():
                    rhs2 = rhs2 - rk.scale(co) * b[m]
        try:
            b_hat = poly_div_exact(rhs2, lead2)
        except ArithmeticError:
            rep = failed("b_recursion", params,
                         f"(3s+1) route: inexact division at l={l}", cases, t0)
            return BSeq("recursion", b), rep
        if l + 2 < len(b):
            if b[l + 2] != b_hat:
                rep = failed("b_recursion", params,
                             f"(3s+1) route disagrees at b_{l + 2}", cases, t0)
                return BSeq("recursion", b), rep
        else:
            b.append(b_hat)
        cases += 1

    rep = passed("b_recursion", params, cases, t0)
    return BSeq("recursion", b[:L + 1]), rep


def b_equality_report(x: BSeq, y: BSeq) -> Report:
    """The two sources must produce identical polynomials order by order."""
    t0 = time.perf_counter()
    n = min(len(x.bl), len(y.bl))
    params = {"sources": f"{x.source}/{y.source}", "orders": n - 1}
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
