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
from dataclasses import dataclass

from .exactnum import ONE, Rat, ZERO, binomial, double_factorial
from .polyring import Poly, partial_derivative, poly_div_exact
from .report import Report, failed, inconclusive, passed
from .series import LaurentX, Series2, Series3, assert_degree_le
from .tutte import tau_series


@dataclass(frozen=True)
class TemplateValue:
    """One evaluated monomial template: the integral value with provenance."""

    value: object  # Rat
    n: int
    t_exp: int
    s_exp: int


def monomial_template(a: int, b: int, n: int) -> TemplateValue:
    """Integral of t^a s^b over dimension n: C(2n-2b, n-b) when a+2b = 2n,
    else 0."""
    if a + 2 * b == 2 * n and a % 2 == 0:
        return TemplateValue(binomial(2 * n - 2 * b, n - b), n, a, b)
    return TemplateValue(ZERO, n, a, b)


def integrate(p: Poly, n: int):
    """Apply the dimension-n integral functional to a polynomial in t, s."""
    total = ZERO
    for m, c in p.terms.items():
        if any(m[i] for i in (2, 3, 4, 5)):
            raise ValueError("integrate expects a polynomial in t, s only")
        total += c * monomial_template(m[0], m[1], n).value
    return total


def reduce_templates_series(A: Series3) -> Series2:
    """Termwise t-reduction of a (t,s,lambda) series into an (s,lambda) one."""
    out: dict = {}
    for (a, b, c), v in A.coeffs.items():
        if a % 2:
            continue
        k = (b + a // 2, c)
        out[k] = out.get(k, ZERO) + binomial(a, a // 2) * v
    return Series2(out, A.D // 2, A.L)


# -- the two polynomial families -------------------------------------------


def q1_poly(m: int) -> Poly:
    """First auxiliary polynomial in y: sum over 1 <= i <= m, i = m mod 2,
    of C(m-i, (m-i)/2) y^i / i.  The even-m additive constant is tracked
    separately (see `verify_series_identity`)."""
    out = {}
    for i in range(1, m + 1):
        if (m - i) % 2:
            continue
        out[(0, 0, 0, 0, 0, i)] = binomial(m - i, (m - i) // 2) / Rat(i)
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
    lhs = (4 - y * y) * partial_derivative(q2, "y") \
        - poly_div_exact(q2, y).scale(Rat(4))
    rhs = y ** (m + 1)
    if m % 2 == 0:
        rhs = rhs - y.scale(binomial(m, m // 2))
    if lhs == rhs:
        return passed("q2_ode", params, 1, t0)
    return failed("q2_ode", params,
                  f"lhs-rhs = {lhs - rhs}", 1, t0)


# -- the Laurent-series identity -------------------------------------------


def sqrt_1m4x2(N: int) -> LaurentX:
    """sqrt(1 - 4x^2) = 1 - 2 sum_l C(2l,l)/(l+1) x^(2l+2)."""
    q = {0: ONE}
    for l in range(0, (N - 2) // 2 + 1):
        q[2 * l + 2] = Rat(-2) * binomial(2 * l, l) / Rat(l + 1)
    return LaurentX(q, {}, N)


def inv_sqrt_1m4x2(N: int) -> LaurentX:
    """1/sqrt(1 - 4x^2) = sum_l C(2l,l) x^(2l)."""
    return LaurentX({2 * l: binomial(2 * l, l) for l in range(N // 2 + 1)},
                    {}, N)


def _poly_in_inv_x(p: Poly, N: int) -> LaurentX:
    """Evaluate a polynomial in y at y = 1/x as a Laurent series."""
    q = {}
    for mkey, c in p.terms.items():
        q[-mkey[5]] = c
    return LaurentX(q, {}, N)


def combinatorial_sum(m: int, N: int) -> LaurentX:
    """The summation side: sum over k > 0, k = m mod 2, of
    C(k+m, (k+m)/2) x^k / k, truncated at order N."""
    q = {}
    for k in range(1, N + 1):
        if (k - m) % 2:
            continue
        q[k] = binomial(k + m, (k + m) // 2) / Rat(k)
    return LaurentX(q, {}, N)


def closed_side(m: int, N: int) -> LaurentX:
    """Q1^m(1/x) + Q2^m(1/x) sqrt(1-4x^2) - [m even] C(m,m/2) log(1+sqrt(1-4x^2)),
    without the undetermined even-m constant."""
    rt = sqrt_1m4x2(N)
    out = _poly_in_inv_x(q1_poly(m), N) + _poly_in_inv_x(q2_poly(m), N) * rt
    if m % 2 == 0:
        out = out - (1 + rt).log().scale(binomial(m, m // 2))
    return out


def kappa_constant(m: int, N: int | None = None):
    """The even-m additive constant, pinned by matching the x^0 coefficient:
    a pair (rational part, log2 part).  Zero for odd m."""
    if m % 2:
        return ZERO, ZERO
    if N is None:
        N = 2 * m + 8
    rq, rp = closed_side(m, N).coeff(0)
    # the summation side has no x^0 term
    return -rq, -rp


def verify_series_identity(m: int, N: int) -> Report:
    """Check the combinatorial Laurent identity at order N.

    The derivative form is constant-free, so it is checked first; the even-m
    constant is then determined by x^0 matching and the full identity is
    re-checked with it.  The report's witness records kappa.
    """
    t0 = time.perf_counter()
    params = {"m": m, "order": N}
    # coefficients above N - m - 2 are truncation artifacts: the closed side
    # multiplies principal parts of depth m against order-N expansions, and
    # differentiation costs one more order
    upto = N - m - 2
    if upto < 0:
        # not even x^0 survives: kappa would be read off a truncated
        # coefficient, and no comparison is left to make
        return inconclusive("series_identity", params,
                            f"order {N} leaves no coefficient to compare "
                            f"for m = {m}; need order >= {m + 2}", 0, t0)
    lhs = combinatorial_sum(m, N)
    rhs = closed_side(m, N)

    def eq_upto(A: LaurentX, B: LaurentX) -> bool:
        qa = {k: v for k, v in A.q.items() if k <= upto}
        qb = {k: v for k, v in B.q.items() if k <= upto}
        pa = {k: v for k, v in A.p.items() if k <= upto}
        pb = {k: v for k, v in B.p.items() if k <= upto}
        return qa == qb and pa == pb

    dl, dr = lhs.derivative(), rhs.derivative()
    if not eq_upto(dl, dr):
        return failed("series_identity", params, "derivative form differs",
                      N, t0)
    # the Q2-term derivative has the displayed closed form
    # 1/(x^(m+1) sqrt) - [m even] C(m,m/2)/(x sqrt), from the binomial series
    inv_rt = inv_sqrt_1m4x2(N)
    direct = LaurentX.monomial(-(m + 1), ONE, N) * inv_rt
    if m % 2 == 0:
        direct = direct - LaurentX.monomial(-1, binomial(m, m // 2), N) * inv_rt
    q2term = _poly_in_inv_x(q2_poly(m), N) * sqrt_1m4x2(N)
    if not eq_upto(q2term.derivative(), direct):
        return failed("series_identity", params,
                      "derivative does not match 1/(x^(m+1) sqrt(1-4x^2)) form",
                      N, t0)
    kq, kp = kappa_constant(m, N)
    if m % 2 == 1 and (kq or kp):
        return failed("series_identity", params,
                      f"odd m needs no constant, got {kq}+{kp}*log2", N, t0)
    full = rhs + LaurentX({0: kq}, {0: kp}, N)
    if not eq_upto(lhs, full):
        return failed("series_identity", params,
                      "full identity fails after constant matching", N, t0)
    rep = passed("series_identity", params, N, t0)
    rep.witness = f"kappa = {kq} + {kp}*log2"
    return rep


# -- the reduced series h_m ------------------------------------------------


def base_series(S: int, L: int) -> dict:
    """Shared (s,lambda) ingredients at caps (S, L): r, b, 1+lambda*s, tau."""
    s = Series2.var("s", S, L)
    lam = Series2.var("l", S, L)
    one_ls = 1 + lam * s
    tau = Series2({(0, c): v for (_, c), v in tau_series(L).coeffs.items()},
                  S, L)
    r = s * one_ls.inverse() + tau
    b = s + one_ls * ((1 + r) ** 2 - s.scale(4)).sqrt()
    return {"s": s, "lam": lam, "one_ls": one_ls, "tau": tau, "r": r, "b": b}


def h_m_series(m: int, S: int, L: int, kappa=None):
    """Closed form of h_m at caps (S, L).

    Returns (main, log2_part) as Series2; log2_part must vanish (the formal
    log 2 contributions cancel between the combined logarithm and kappa),
    which `verify_h_m` asserts.
    """
    if kappa is None:
        kappa = kappa_constant(m)
    kq, kp = kappa
    env = base_series(S, L)
    s, one_ls, tau, r, b = (env[k] for k in ("s", "one_ls", "tau", "r", "b"))
    sgn = Rat(-1 if m % 2 == 0 else 1)  # (-1)^(m+1)
    main = Series2.zero(S, L)
    l2 = Series2.zero(S, L)

    one_r_pows = [Series2.const(1, S, L)]
    for _ in range(m):
        one_r_pows.append(one_r_pows[-1] * (1 + r))
    inv_one_ls = one_ls.inverse()
    bs_over = (b - s) * inv_one_ls  # sqrt((1+r)^2 - 4s)

    def s_pow(e):
        return Series2({(e, 0): ONE}, S, L)

    q1 = q1_poly(m)
    q2 = q2_poly(m)
    for mono, c in q1.terms.items():
        i = mono[5]
        main = main + (one_r_pows[i] * s_pow((m - i) // 2)).scale(c * sgn)
    for mono, c in q2.terms.items():
        i = mono[5]
        main = main + (one_r_pows[i - 1] * bs_over
                       * s_pow((m - i) // 2)).scale(c * sgn)
    # the pinned constant rides on s^(m/2)
    if kq or kp:
        main = main + s_pow(m // 2).scale(kq * sgn)
        l2 = l2 + s_pow(m // 2).scale(kp * sgn)

    if m % 2 == 0:
        cm = binomial(m, m // 2)
        big = 1 + (one_ls * tau) + (env["lam"] * s) + b
        lg_big, l2_big = big.log()
        lg_small, _ = one_ls.log()  # constant term 1: no log 2 part
        main = main + (s_pow(m // 2) * (lg_big - lg_small)).scale(cm)
        l2 = l2 + s_pow(m // 2).scale(cm * l2_big)
    return main, l2


def direct_reduction(m: int, S: int, L: int) -> Series2:
    """Template reduction of t^m log(1 + t + r), expanded honestly in three
    variables at caps (2S, L) and then reduced."""
    D = 2 * S
    t = Series3.var("t", D, L)
    s3 = Series3.var("s", D, L)
    lam3 = Series3.var("l", D, L)
    tau3 = Series3.from_series2(tau_series(L), D, L)
    r3 = s3 * (1 + lam3 * s3).inverse() + tau3
    lg = (1 + t + r3).log()
    return reduce_templates_series((t ** m) * lg)


def verify_h_m(m: int, S: int, L: int) -> Report:
    """h_m equals the direct reduction coefficientwise and has weighted
    degree <= 2m; the log2 component must cancel identically."""
    t0 = time.perf_counter()
    params = {"m": m, "s_cap": S, "lambda_cap": L}
    if S < m // 2 + 1:
        # the closed form starts at s^(m/2); below that cap there is
        # nothing to compare
        return Report("h_m", params, "inconclusive",
                      f"s cap {S} too small for m={m}", 0, 0)
    kappa = kappa_constant(m)
    main, l2 = h_m_series(m, S, L, kappa)
    if not l2.is_zero():
        return failed("h_m", params, "log2 component does not cancel",
                      len(main.coeffs), t0)
    direct = direct_reduction(m, S, L)
    if main != direct:
        diff = main - direct
        key = sorted(diff.coeffs)[0]
        return failed("h_m", params,
                      f"mismatch at s^{key[0]} l^{key[1]}: {diff.coeffs[key]}",
                      len(main.coeffs), t0)
    deg = assert_degree_le(main, 2 * m)
    if not deg.ok:
        return failed("h_m", params, deg.witness, len(main.coeffs), t0)
    rep = passed("h_m", params, len(main.coeffs), t0)
    rep.witness = f"kappa = {kappa[0]} + {kappa[1]}*log2"
    return rep
