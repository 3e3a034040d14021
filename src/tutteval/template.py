"""The template method: the discrete integral functional on (t,s)-monomials,
the t^k -> binomial reduction, the two auxiliary polynomial families with
their ODE and Laurent-series identity, and the reduced series h_m with its
degree bound.

The integral of a (t,s)-polynomial over complex dimension n picks the
2n-homogeneous part (weighted, t:1 s:2) and evaluates each monomial
s^b t^(2n-2b) to C(2n-2b, n-b).  Everything downstream reduces identities
among valuations to exact rational arithmetic against these values.
"""

from __future__ import annotations

import time
from math import comb, lcm
from operator import mul

from .exactnum import ONE, Rat, ZERO, double_factorial
from .polyring import Poly, _ratio, partial_derivative, poly_div_exact
from .report import Report, failed, inconclusive, passed
from .series import LaurentX, Series2, Series3
from .tutte import tau_series


def monomial_template(a: int, b: int, n: int) -> int:
    """Integral of t^a s^b over dimension n: C(2n-2b, n-b) when a+2b = 2n,
    else 0."""
    if a + 2 * b == 2 * n and a % 2 == 0:
        return comb(2 * n - 2 * b, n - b)
    return 0


def integrate(p: Poly, n: int):
    """Apply the dimension-n integral functional to a polynomial in t, s."""
    total = ZERO
    for m, c in p.terms.items():
        if any(m[i] for i in (2, 3, 4, 5)):
            raise ValueError("integrate expects a polynomial in t, s only")
        total += c * monomial_template(m[0], m[1], n)
    return total


# -- the two polynomial families -------------------------------------------


def q1_poly(m: int) -> Poly:
    """First auxiliary polynomial in y: sum over 1 <= i <= m, i = m mod 2,
    of C(m-i, (m-i)/2) y^i / i.  The even-m additive constant is tracked
    separately (see `verify_series_identity`)."""
    out = {}
    for i in range(1, m + 1):
        if (m - i) % 2:
            continue
        out[(0, 0, 0, 0, 0, i)] = Rat(comb(m - i, (m - i) // 2), i)
    return Poly(out)


def q2_poly(m: int) -> Poly:
    """Second auxiliary polynomial in y, the particular ODE solution:
    -(2^(m-i) i!! (m-1)!! / (i (i-1)!! m!!)) y^i over the same index range."""
    out = {}
    for i in range(1, m + 1):
        if (m - i) % 2:
            continue
        num = Rat(2 ** (m - i) * double_factorial(i) * double_factorial(m - 1))
        den = Rat(i * double_factorial(i - 1) * double_factorial(m))
        out[(0, 0, 0, 0, 0, i)] = -num / den
    return Poly(out)


def verify_q2_ode(m: int) -> Report:
    """Exact check of (4 - y^2) Q2' - (4/y) Q2 = y^(m+1) - [m even] C(m,m/2) y."""
    t0 = time.perf_counter()
    params = {"m": m}
    y = Poly.var("y")
    q2 = q2_poly(m)
    try:
        q2_over_y = poly_div_exact(q2, y)
    except ArithmeticError as exc:
        # a term of q2 without a factor y leaves no identity to compare
        return failed("q2_ode", params, str(exc), 0, t0)
    lhs = (4 - y * y) * partial_derivative(q2, "y") - q2_over_y.scale(Rat(4))
    rhs = y ** (m + 1)
    if m % 2 == 0:
        rhs = rhs - y.scale(comb(m, m // 2))
    if lhs == rhs:
        return passed("q2_ode", params, 1, t0)
    return failed("q2_ode", params,
                  f"lhs-rhs = {lhs - rhs}", 1, t0)


# -- the Laurent-series identity -------------------------------------------


def sqrt_1m4x2(N: int) -> LaurentX:
    """sqrt(1 - 4x^2) = 1 - 2 sum_l C(2l,l)/(l+1) x^(2l+2)."""
    q = {(0, 0): ONE}
    for l in range(0, (N - 2) // 2 + 1):
        q[(2 * l + 2, 0)] = Rat(-2 * comb(2 * l, l), l + 1)
    return LaurentX(q, N)


def inv_sqrt_1m4x2(N: int) -> LaurentX:
    """1/sqrt(1 - 4x^2) = sum_l C(2l,l) x^(2l)."""
    return LaurentX({(2 * l, 0): comb(2 * l, l)
                     for l in range(N // 2 + 1)}, N)


def _poly_in_inv_x(p: Poly, N: int) -> LaurentX:
    """Evaluate a polynomial in y at y = 1/x as a Laurent series."""
    q = {}
    for mkey, c in p.terms.items():
        q[(-mkey[5], 0)] = c
    return LaurentX(q, N)


def combinatorial_sum(m: int, N: int) -> LaurentX:
    """The summation side: sum over k > 0, k = m mod 2, of
    C(k+m, (k+m)/2) x^k / k, truncated at order N."""
    q = {}
    for k in range(1, N + 1):
        if (k - m) % 2:
            continue
        q[(k, 0)] = Rat(comb(k + m, (k + m) // 2), k)
    return LaurentX(q, N)


def log_one_plus_sqrt(N: int) -> LaurentX:
    """log(1 + sqrt(1 - 4x^2)) at order N, with its formal log 2 part."""
    return (1 + sqrt_1m4x2(N)).log()


def closed_side(m: int, N: int, lg: LaurentX | None) -> LaurentX:
    """Q1^m(1/x) + Q2^m(1/x) sqrt(1-4x^2) - [m even] C(m,m/2) log(1+sqrt(1-4x^2)),
    without the undetermined even-m constant.  The log, the same for every
    m, is `lg`, which must be `log_one_plus_sqrt(N)`; odd m do not read it."""
    rt = sqrt_1m4x2(N)
    out = _poly_in_inv_x(q1_poly(m), N) + _poly_in_inv_x(q2_poly(m), N) * rt
    if m % 2 == 0:
        out = out - lg.scale(comb(m, m // 2))
    return out


def kappa_constant(m: int) -> tuple:
    """kappa_m, the additive constant of the series identity, as the pair
    (rational part, log2 part): (0, 0) for odd m, and for m = 2j the closed
    form (-C(m, j)(H_m - H_j), C(m, j)), H_n the harmonic numbers.

    kappa is minus the x^0 term of `closed_side`; for odd m it has none.
    For m = 2j, -C(m, j) log(1 + sqrt(1 - 4x^2)) gives -C(m, j) log 2, and
    Q1(1/x) nothing.  In Q2(1/x) sqrt(1 - 4x^2), the y^(2l+2) term of Q2,
    l < j, meets the x^(2l+2) term -2 C(2l, l)/(l + 1) of the root; by
    (2i)!! = 2^i i! and (2j - 1)!! = (2j)!/(2^j j!) their product is
    C(2j, j)/((2l + 1)(2l + 2)), and the sum over l < j of
    1/(2l + 1) - 1/(2l + 2) is H_2j - H_j (Graham, Knuth, Patashnik,
    Concrete Mathematics, 2nd ed., 1994, section 6.3)."""
    if m % 2:
        return ZERO, ZERO
    c = comb(m, m // 2)
    return sum((Rat(-c, i) for i in range(m // 2 + 1, m + 1)), ZERO), Rat(c)


def compared_upto(m: int, N: int) -> int:
    """The highest power of x that the series identity for m compares at
    order N, negative when none is left.  Coefficients above N - m - 2 are
    truncation artifacts: the closed side multiplies principal parts of
    depth m against order-N expansions, and differentiation costs one more
    order."""
    return N - m - 2


def verify_series_identity(m: int, N: int, lg: LaurentX | None) -> Report:
    """Check the combinatorial Laurent identity at order N.

    The derivative form is constant-free, so it is checked first; the even-m
    constant is then determined by x^0 matching and the full identity is
    re-checked with it.  The matched constant must equal the closed form
    of `kappa_constant`, and the report's witness records it.  `lg` is
    `log_one_plus_sqrt(N)`, shared by the even m of one run, or None when
    no even m of the run has a coefficient to compare.
    """
    t0 = time.perf_counter()
    params = {"m": m, "order": N}
    upto = compared_upto(m, N)
    if upto < 0:
        # not even x^0 survives: kappa would be read off a truncated
        # coefficient, and no comparison is left to make
        return inconclusive("series_identity", params,
                            f"order {N} leaves no coefficient to compare "
                            f"for m = {m}; need order >= {m + 2}", 0, t0)
    lhs = combinatorial_sum(m, N)
    rhs = closed_side(m, N, lg)

    def eq_upto(A: LaurentX, B: LaurentX) -> bool:
        return LaurentX(A.coeffs, upto) == LaurentX(B.coeffs, upto)

    dl, dr = lhs.derivative(), rhs.derivative()
    if not eq_upto(dl, dr):
        return failed("series_identity", params, "derivative form differs",
                      N, t0)
    # the Q2-term derivative has the displayed closed form
    # 1/(x^(m+1) sqrt) - [m even] C(m,m/2)/(x sqrt), from the binomial series
    inv_rt = inv_sqrt_1m4x2(N)
    direct = inv_rt.shift(-(m + 1))
    if m % 2 == 0:
        direct = direct - inv_rt.shift(-1).scale(comb(m, m // 2))
    q2term = _poly_in_inv_x(q2_poly(m), N) * sqrt_1m4x2(N)
    if not eq_upto(q2term.derivative(), direct):
        return failed("series_identity", params,
                      "derivative does not match 1/(x^(m+1) sqrt(1-4x^2)) form",
                      N, t0)
    kq, kp = -rhs.coeff(0, 0), -rhs.coeff(0, 1)
    cq, cp = kappa_constant(m)
    if (kq, kp) != (cq, cp):
        return failed("series_identity", params,
                      f"x^0 matching gives kappa = {kq} + {kp}*log2, the "
                      f"closed form {cq} + {cp}*log2", N, t0)
    full = rhs + LaurentX({(0, 0): kq, (0, 1): kp}, N)
    if not eq_upto(lhs, full):
        return failed("series_identity", params,
                      "full identity fails after constant matching", N, t0)
    rep = passed("series_identity", params, N, t0)
    rep.witness = f"kappa = {kq} + {kp}*log2"
    return rep


# -- the reduced series h_m ------------------------------------------------


def _tau_ints(L: int) -> list:
    """The coefficients of tau(lambda) to lambda^L as a list of ints, from
    `tau_series`, with tau[0] = 0.  Raises ArithmeticError if one is not an
    integer."""
    tau = [0] * (L + 1)
    for (_, c), v in tau_series(L).coeffs.items():
        if v.denominator != 1:
            raise ArithmeticError(f"tau coefficient {v} of lambda^{c} "
                                  "is not an integer")
        tau[c] = v.numerator
    return tau


def _one_plus_r(S: int, L: int) -> Series2:
    """1 + r with r = s/(1+lambda s) + tau(lambda), at caps (S, L), in
    closed form on ints: 1, the terms (-1)^(j-1) s^j lambda^(j-1) of
    s/(1+lambda s), and tau (`_tau_ints`)."""
    terms = {(0, c): v for c, v in enumerate(_tau_ints(L))}
    terms[(0, 0)] = 1
    for j in range(1, min(S, L + 1) + 1):
        terms[(j, j - 1)] = (-1) ** (j - 1)
    return Series2(terms, S, L)


def base_series(S: int, L: int) -> tuple:
    """The (s,lambda) series under b at caps (S, L), as the tuple
    (1 + r, root, b) with root = sqrt((1+r)^2 - 4s) and
    b = s + (1+lambda s) root, the product by lambda s taken as a shift."""
    s = Series2.var("s", S, L)
    one_r = _one_plus_r(S, L)
    root = (one_r * one_r - s.scale(4)).sqrt()
    return one_r, root, s + root + root.shift(1, 1)


def h_m_inputs(m_max: int, S: int, L: int) -> tuple:
    """(pows, root, log_pair, rel): the series that h_m reads at caps
    (S, L), built once for a run over m <= m_max.  pows are the powers
    (1 + r)^i, i <= m_max, of which h_m reads the first m + 1, root is that
    of `base_series`, and rel is `relation_series(2 S, L)`, which
    `direct_reduction` reads.  log_pair is the pair (series, log 2 part) of
    the m-independent log(1 + r + root).  It equals log(big) - log(1+lambda
    s) with big = 1 + (1+lambda s) tau + lambda s + b, since big = (1+lambda
    s)(1 + tau + root) + s; the constant term is 2, so the log 2 part is 1."""
    one_r, root, _ = base_series(S, L)
    pows = [Series2.const(1, S, L)]
    for _ in range(m_max):
        pows.append(pows[-1] * one_r)
    return pows, root, (one_r + root).log(), relation_series(2 * S, L)


def h_m_series(m: int, S: int, L: int, kappa, one_r_pows, root,
               log_pair):
    """Closed form of h_m at caps (S, L), from kappa = `kappa_constant(m)`
    and, at the same caps, the powers (1 + r)^i, i <= m at least, the root
    and the logarithm log_pair of `h_m_inputs`.

    Returns (main, log2_part) as Series2; log2_part must vanish (the formal
    log 2 contributions cancel between the combined logarithm and kappa),
    which `verify_h_m` asserts.
    """
    kq, kp = kappa
    lg, l2_big = log_pair
    sgn = Rat(-1 if m % 2 == 0 else 1)  # (-1)^(m+1)
    main = Series2.zero(S, L)
    l2 = Series2.zero(S, L)

    q1 = q1_poly(m)
    q2 = q2_poly(m)
    for mono, c in q1.terms.items():
        i = mono[5]
        main = main + one_r_pows[i].shift((m - i) // 2).scale(c * sgn)
    for mono, c in q2.terms.items():
        i = mono[5]
        term = (one_r_pows[i - 1] * root).shift((m - i) // 2)
        main = main + term.scale(c * sgn)
    # the constant kappa rides on s^(m/2)
    top = (m // 2, 0)
    if kq or kp:
        main = main + Series2({top: kq * sgn}, S, L)
        l2 = l2 + Series2({top: kp * sgn}, S, L)

    if m % 2 == 0:
        cm = comb(m, m // 2)
        main = main + lg.shift(m // 2).scale(cm)
        l2 = l2 + Series2({top: cm * l2_big}, S, L)
    return main, l2


def _neg_power_diagonals(tau: list, n_max: int) -> list:
    """The diagonals of the univariate integer series
    w_n = (1 + tau)^(-n), n <= n_max, for `tau` from `_tau_ints(L)`:
    diag[n][c] = [w_n[c], w_(n-1)[c-1], ..., w_(n-i)[c-i]] with
    i = min(n, c), the terms that a sum over k of w_(n-k)[c-k] reads, so
    that such a sum is one `sum(map(mul, ...))`.  w_1 comes from
    y_c = -sum_{i=1..c} tau_i y_(c-i), and w_n = w_(n-1) w_1, cut at
    lambda^L."""
    L = len(tau) - 1
    w1 = [1]
    for c in range(1, L + 1):
        w1.append(-sum(map(mul, tau[1:c + 1], w1[c - 1::-1])))
    w = [1] + [0] * L
    diag = [[[v] for v in w]]
    for _ in range(n_max):
        w = [sum(map(mul, w[:c + 1], w1[c::-1])) for c in range(L + 1)]
        prev = diag[-1]
        diag.append([[w[0]]] + [[w[c]] + prev[c - 1]
                                for c in range(1, L + 1)])
    return diag


def relation_series(D: int, L: int) -> tuple:
    """The series behind both the candidate relations (see
    `verifier.f_table`) and the direct reduction of h_m: log(1 + t + r)
    with r = tau(lambda) + sigma, sigma = s/(1+lambda s), at caps (D, L),
    as the pair (E, g).  E = t d/dt log(1 + t + r) is a `Series3` with
    `int` coefficients, and g = log(1 + r), its t^0 slice, a `Series2` at
    caps (D // 2, L).

    With u = 1/(1 + r), log(1 + t + r) = log(1 + r) + log(1 + t u), so
    the t^a slice, a >= 1, is (-1)^(a+1) u^a / a, and E holds a times it.
    Both parts come from the univariate integer series
    w_n = (1 + tau)^(-n) (`_neg_power_diagonals`) and the negative
    binomial series: u^a = sum_j C(-a, j) sigma^j w_(a+j) and
    sigma^j = sum_k C(-j, k) lambda^k s^(j+k), so [s^0] u^a = w_a and, for
    b >= 1,
        [s^b lambda^c] u^a = (-1)^b sum_{k=0..min(b-1, c)}
                             C(a+j-1, j) C(b-1, k) w_(a+j)[c-k], j = b - k.
    In the same way g = log(1 + tau) + sum_{j>=1} (-1)^(j+1) sigma^j w_j / j,
    so for b >= 1
        [s^b lambda^c] g = (-1)^(b+1) sum_{k=0..min(b-1, c)}
                           C(b-1, k) w_(b-k)[c-k] / (b-k),
    summed on ints over lcm(1..b) and divided once, and
    c [lambda^c] log(1 + tau) = sum_{i=1..c} i tau_i w_1[c-i].  Raises
    ArithmeticError if a coefficient of tau is not an integer.
    """
    tau = _tau_ints(L)
    diag = _neg_power_diagonals(tau, max(D, 1))
    # binom[n][k] = C(n, k) for n < D
    binom = [[comb(n, k) for k in range(n + 1)] for n in range(D)]
    out = {}
    for a in range(1, D + 1):
        sign = 1 if a % 2 else -1
        out.update(((a, 0, c), sign * d[0]) for c, d in enumerate(diag[a]))
        for b in range(1, (D - a) // 2 + 1):
            sign = -sign
            n = a + b
            f = [sign * binom[n - k - 1][b - k] * binom[b - 1][k]
                 for k in range(min(b, L + 1))]
            out.update(((a, b, c), sum(map(mul, f, d)))
                       for c, d in enumerate(diag[n]))
    g = {(0, c): _ratio(sum(i * tau[i] * diag[1][c - i][0]
                            for i in range(1, c + 1)), c)
         for c in range(1, L + 1)}
    for b in range(1, D // 2 + 1):
        den = lcm(*range(1, b + 1))
        sign = 1 if b % 2 else -1
        h = [sign * binom[b - 1][k] * (den // (b - k)) for k in range(b)]
        g.update(((b, c), _ratio(sum(map(mul, h, d)), den))
                 for c, d in enumerate(diag[b]))
    return Series3(out, D, L), Series2(g, D // 2, L)


def direct_reduction(m: int, S: int, L: int, rel: tuple) -> Series2:
    """Template reduction of t^m log(1 + t + r), from rel = (E, g), the
    relation series at caps (2S, L).  The term t^a s^b lambda^c of the
    log, v/a with v in E, moves to t^e, e = a + m; it is dropped when e is
    odd or e + 2b > 2S, and otherwise reduced to C(e, e/2) s^(b + e/2)
    lambda^c.  Each output key sums C(e, e/2) (den/a) v on ints, den the
    lcm of every a that can reach its s exponent, and divides once; the
    t^0 slice g adds C(m, m/2) g when m is even."""
    E, g = rel
    cent = [comb(e, e // 2) for e in range(2 * S + 1)]
    # key (B, c) is reached from a = 2B - 2b - m with a = m mod 2 and b >= 0
    den = [lcm(*range(2 - m % 2, 2 * B - m + 1, 2)) for B in range(S + 1)]
    acc = {}
    for (a, b, c), v in E.coeffs.items():
        e = a + m
        if e % 2 or e + 2 * b > 2 * S:
            continue
        B = b + e // 2
        acc[(B, c)] = acc.get((B, c), 0) + cent[e] * (den[B] // a) * v
    out = {k: _ratio(v, den[k[0]]) for k, v in acc.items()}
    if m % 2 == 0:
        for (b, c), v in g.coeffs.items():
            if m + 2 * b <= 2 * S:
                k = (b + m // 2, c)
                out[k] = out.get(k, 0) + cent[m] * v
    return Series2(out, S, L)


def verify_h_m(m: int, S: int, L: int, inputs) -> Report:
    """h_m equals the direct reduction coefficientwise and has weighted
    degree <= 2m; the log2 component must cancel identically.  inputs are
    the series of `h_m_inputs` at caps (S, L), read only when the caps
    leave something to compare."""
    t0 = time.perf_counter()
    params = {"m": m, "s_cap": S, "lambda_cap": L}
    if L < 0:
        return inconclusive("h_m", params,
                            f"lambda cap {L} is negative; need >= 0", 0, t0)
    if S < m // 2 + 1:
        # the closed form starts at s^(m/2); below that cap there is
        # nothing to compare
        return inconclusive("h_m", params, f"s cap {S} too small for m={m}",
                            0, t0)
    kappa = kappa_constant(m)
    pows, root, log_pair, rel = inputs
    main, l2 = h_m_series(m, S, L, kappa, pows, root, log_pair)
    if not l2.is_zero():
        return failed("h_m", params, "log2 component does not cancel",
                      len(main.coeffs), t0)
    direct = direct_reduction(m, S, L, rel)
    if main != direct:
        diff = main - direct
        key = sorted(diff.coeffs)[0]
        return failed("h_m", params,
                      f"mismatch at s^{key[0]} l^{key[1]}: {diff.coeffs[key]}",
                      len(main.coeffs), t0)
    if main.is_zero():
        # both sides vanish at these caps, so no coefficient was compared
        return inconclusive("h_m", params,
                            f"h_{m} and its direct reduction both vanish at "
                            f"s cap {S}, lambda cap {L}; nothing to compare",
                            0, t0)
    # every stored s^b l^c has weighted degree 2b - 2c <= 2m
    for b, c in sorted(main.coeffs):
        if b - c > m:
            return failed("h_m", params, f"s^{b}*l^{c} coeff "
                          f"{main.coeffs[(b, c)]} has weighted degree "
                          f"{2 * b - 2 * c}", len(main.coeffs), t0)
    rep = passed("h_m", params, len(main.coeffs), t0)
    rep.witness = f"kappa = {kappa[0]} + {kappa[1]}*log2"
    return rep
