"""Template integrals, the auxiliary ODE families, the Laurent identity
with its pinned constants, and the h_m equivalence."""

import hashlib
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tutteval import _kernels_py, series, template
from tutteval.cli import main
from tutteval.exactnum import ONE, Rat, ZERO
from tutteval.polyring import Poly, poly_to_str
from tutteval.series import Series2, Series3
from tutteval.template import (direct_reduction, integrate, kappa_constant,
                               log_one_plus_sqrt, monomial_template, q1_poly,
                               q2_poly, relation_series, verify_h_m,
                               verify_q2_ode, verify_series_identity)
from tutteval.tutte import tau_series


def _relation_series_3var(D, L):
    """The second route to log(1 + t + r), r = s/(1+lambda s) + tau, in
    three variables on rationals, from `Series3` sums and products alone:
    the t-part integrates d/dt log A = A_t / A, with 1/A the geometric sum
    of -(A - 1), and the t^0 part is the log series of r.  Every term of
    A - 1 and of r has a + 2b + c >= 1, so D + L powers reach the caps."""
    t = Series3({(1, 0, 0): 1}, D, L)
    s = Series3({(0, 1, 0): 1}, D, L)
    lam = Series3({(0, 0, 1): 1}, D, L)
    n_max = D + L

    def inverse_of_one_plus(X):
        acc = Series3.const(1, D, L)
        for _ in range(n_max):
            acc = 1 - X * acc
        return acc

    tau = Series3({(0, 0, c): v for (_, c), v in tau_series(L).coeffs.items()},
                  D, L)
    r = s * inverse_of_one_plus(lam * s) + tau
    A = 1 + t + r
    dA = Series3({(a - 1, b, c): v * a
                  for (a, b, c), v in A.coeffs.items() if a}, D, L)
    dlog = dA * inverse_of_one_plus(t + r)
    out = {(a + 1, b, c): Rat(v, a + 1)
           for (a, b, c), v in dlog.coeffs.items()}
    # log(1 + r) = sum_n (-1)^(n+1) r^n / n, by Horner
    log_r = Series3.zero(D, L)
    for n in range(n_max, 0, -1):
        log_r = (log_r + Rat(1 if n % 2 else -1, n)) * r
    out.update(log_r.coeffs)
    return Series3(out, D, L)


def _relation_series_log(D, L):
    """log(1 + t + r) as one `Series3`, assembled from the pair (E, g) of
    `relation_series`: the t^a coefficient v/a for v in E, g at t^0."""
    E, g = relation_series(D, L)
    out = {(a, b, c): Rat(v, a) for (a, b, c), v in E.coeffs.items()}
    out.update({(0, b, c): v for (b, c), v in g.coeffs.items()})
    return Series3(out, D, L)


def _reduce_shifted(f, m, S):
    """The template reduction of t^m f, termwise on rationals: t^e s^b
    lambda^c with e = a + m even and e + 2b <= 2S becomes
    C(e, e/2) s^(b + e/2) lambda^c, and every other term drops."""
    out = {}
    for (a, b, c), v in f.coeffs.items():
        e = a + m
        if e % 2 or e + 2 * b > 2 * S:
            continue
        k = (b + e // 2, c)
        out[k] = out.get(k, ZERO) + comb(e, e // 2) * v
    return Series2(out, S, f.caps[1])


def _digest(f):
    text = "".join(f"{a} {b} {c} {v}\n"
                   for (a, b, c), v in sorted(f.coeffs.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_monomial_template_values():
    # C(2n-2b, n-b) on the degree-matched even lattice
    assert monomial_template(0, 1, 1) == ONE          # C(0,0)
    assert monomial_template(2, 0, 1) == Rat(2)       # C(2,1)
    assert monomial_template(4, 0, 2) == Rat(6)       # C(4,2)
    assert monomial_template(2, 1, 2) == Rat(2)
    assert monomial_template(0, 2, 2) == ONE
    # off-lattice: degree mismatch or odd t-power
    assert monomial_template(1, 0, 1) == ZERO
    assert monomial_template(2, 0, 2) == ZERO
    assert monomial_template(3, 1, 2) == ZERO


@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8))
@settings(max_examples=60)
def test_monomial_template_closed_form(a, b, n):
    v = monomial_template(a, b, n)
    if a % 2 == 0 and a + 2 * b == 2 * n:
        assert v == comb(2 * n - 2 * b, n - b)
    else:
        assert v == ZERO


def test_integrate_hand_examples():
    # the two lowest relations integrate to zero by hand
    t, s = Poly.var("t"), Poly.var("s")
    assert integrate(s - Rat(1, 2) * t ** 2, 1) == ZERO
    assert integrate(Rat(1, 3) * t ** 4 - t ** 2 * s, 2) == ZERO
    assert integrate(t ** 2, 1) == Rat(2)
    with pytest.raises(ValueError):
        integrate(Poly.var("l"), 1)


def test_direct_reduction_by_hand():
    # at lambda cap 0 the series is log(1 + t + s) = t + s - t^2/2 - ...;
    # below t^2 s^2 weight, t^2 times it has t^3 (odd, dies), t^2 s
    # (-> 2 s^2) and -t^4/2 (-> -C(4,2)/2 s^2 = -3 s^2)
    assert direct_reduction(2, 2, 0, relation_series(4, 0)) == \
        Series2({(2, 0): -1}, 2, 0)
    # m = 0: s and -t^2/2 -> -s cancel at s cap 1
    assert direct_reduction(0, 1, 0, relation_series(2, 0)).is_zero()


@pytest.mark.parametrize("m, S, L", [(0, 3, 2), (1, 4, 1), (2, 5, 3),
                                     (3, 4, 0), (4, 6, 2), (7, 6, 2)])
def test_direct_reduction_matches_three_variable_route(m, S, L):
    got = direct_reduction(m, S, L, relation_series(2 * S, L))
    assert got.caps == (S, L)
    assert not got.is_zero()
    assert got == _reduce_shifted(_relation_series_3var(2 * S, L), m, S)


@given(st.integers(0, 6), st.integers(1, 5), st.integers(0, 3),
       st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_reduction_preserves_integrals(m, S, L, n):
    # the integral over dimension n of [lambda^c] t^m log(1 + t + r), cut
    # at weighted degree 2S, is the s^n lambda^c coefficient of the
    # reduction
    f = _relation_series_3var(2 * S, L)
    reduced = direct_reduction(m, S, L, relation_series(2 * S, L))
    for c in range(L + 1):
        p = Poly({(a + m, b, 0, 0, 0, 0): v
                  for (a, b, cc), v in f.coeffs.items()
                  if cc == c and a + m + 2 * b <= 2 * S})
        assert integrate(p, n) == integrate(reduced.lambda_slice(c), n)


@pytest.mark.parametrize("D, L", [(6, 2), (9, 4), (12, 0), (17, 4), (24, 8),
                                  # odd and even D, L = 0, L above D / 2,
                                  # and D = 0, 1, 2
                                  (0, 3), (1, 0), (1, 5), (2, 0), (2, 7),
                                  (3, 9), (7, 0), (8, 6), (11, 10), (16, 3)])
def test_relation_series_matches_three_variable_route(D, L):
    E, g = relation_series(D, L)
    assert E.caps == (D, L) and g.caps == (D // 2, L)
    # E = t d/dt log(1 + t + r) has no t^0 term and integer coefficients
    assert all(a >= 1 and type(v) is int for (a, _, _), v in E.coeffs.items())
    assert _relation_series_log(D, L) == _relation_series_3var(D, L)


@given(st.integers(0, 12), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_relation_series_matches_three_variable_route_property(D, L):
    assert _relation_series_log(D, L) == _relation_series_3var(D, L)


def _spy_every_binding(monkeypatch, fn, calls, name):
    """Record (name, args) for each call of `fn` through every binding of
    it in tutteval."""
    def counted(*args, **kwargs):
        calls.append((name, args))
        return fn(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("tutteval") and mod is not None:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)


def test_relation_series_needs_no_bivariate_inverse_and_no_product(
        monkeypatch):
    # the binomial route reads univariate powers of 1/(1 + tau): no inverse
    # of the bivariate 1 + r, and no mul_trunc2 product of its powers
    calls = []
    inverse = Series2.inverse

    def spy_inverse(self):
        if self.caps[0]:
            calls.append("bivariate inverse")
        return inverse(self)

    monkeypatch.setattr(Series2, "inverse", spy_inverse)
    _spy_every_binding(monkeypatch, _kernels_py.mul_trunc2, calls,
                       "mul_trunc2")
    relation_series(24, 8)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["all"], ["conjecture", "--n-max", "16", "--i-max", "10"]])
def test_reports_make_no_series3_product(argv, monkeypatch, capsys):
    # the one Series3 the program makes, the relation series, is written
    # down coefficient by coefficient: no report multiplies two Series3,
    # so mul_trunc3 serves the tests alone; every cache is cleared first,
    # so the run is cold
    calls = []
    _spy_every_binding(monkeypatch, _kernels_py.mul_trunc3, calls,
                       "mul_trunc3")
    _clear_caches()
    assert main(argv + ["--jobs", "1"]) == 0
    capsys.readouterr()
    assert calls == []


def _clear_caches():
    for mod in [m for n, m in sys.modules.items()
                if n.startswith("tutteval") and m is not None]:
        for val in vars(mod).values():
            if hasattr(val, "cache_clear"):
                val.cache_clear()


def _int_maps(name: str, args: tuple) -> bool:
    maps = ([X for pairs in args[0] for pair in pairs for X in pair]
            if name == "mul_packed" else args[:2])
    return all(type(c) is int for X in maps for c in X.values())


@pytest.mark.parametrize("argv, kernels", [
    (["all"], {"mul_poly", "mul_trunc2", "mul_packed"}),
    (["conjecture", "--n-max", "16", "--i-max", "10"], set())])
def test_reports_give_the_kernels_ints_only(argv, kernels, monkeypatch,
                                            capsys):
    # the kernels test no coefficient type: `Poly` and series products
    # clear denominators first, and `sums_of_products` packs only ints, so
    # every kernel call of a cold run gets maps to ints.  The conjecture
    # run writes its relation series down with no product at all, so there
    # the check guards against a future caller
    calls = []
    for name in ("mul_poly", "mul_trunc2", "mul_packed"):
        _spy_every_binding(monkeypatch, getattr(_kernels_py, name), calls,
                           name)
    _clear_caches()
    assert main(argv + ["--jobs", "1"]) == 0
    capsys.readouterr()
    assert kernels <= {name for name, _ in calls}
    assert [name for name, args in calls if not _int_maps(name, args)] == []


def test_relation_series_digest():
    # the (38, 10) expansion behind `verify conjecture --n-max 16 --i-max 10`
    f = _relation_series_log(38, 10)
    assert len(f.coeffs) == 4378
    assert _digest(f) == ("e159c9761a03123bf2719b2e0c4601d1"
                          "2872b93309f61e0429f53d58fd6ea280")


def test_relation_series_rejects_non_integer_tau(monkeypatch):
    def bad_tau(L):
        tau = tau_series(L)
        return Series2({**tau.coeffs, (0, 2): Rat(7, 2)}, 0, L)

    monkeypatch.setattr(template, "tau_series", bad_tau)
    with pytest.raises(ArithmeticError, match="7/2"):
        relation_series(6, 2)


def test_q_polys_low_orders():
    # m=1: single term y/1
    assert q1_poly(1) == Poly({(0, 0, 0, 0, 0, 1): ONE})
    # m=2: y^2/2
    assert q1_poly(2) == Poly({(0, 0, 0, 0, 0, 2): Rat(1, 2)})
    # q2 at m=1: -(2^0 * 1!! * 0!!)/(1 * 0!! * 1!!) y = -y
    assert q2_poly(1) == Poly({(0, 0, 0, 0, 0, 1): Rat(-1)})


def test_q2_ode_reports():
    for m in range(13):
        assert verify_q2_ode(m).ok


def test_q2_ode_fails_on_a_term_that_y_does_not_divide(monkeypatch,
                                                       capsys):
    # q2_poly(5) + 1 leaves (4/y) Q2 undefined: a fail report with the
    # division's reason, and `verify template` prints every report
    q2 = template.q2_poly
    monkeypatch.setattr(template, "q2_poly",
                        lambda m: q2(m) + 1 if m == 5 else q2(m))
    rep = verify_q2_ode(5)
    assert rep.status == "fail" and rep.n_cases == 0
    assert rep.witness == "inexact polynomial division"
    assert main(["template"]) == 1
    assert ("[FAIL] q2_ode(m=5) cases=0"
            in capsys.readouterr().out)


def test_q2_is_the_polynomial_solution_by_sympy():
    # an independent solve: the homogeneous solutions c y / sqrt(4 - y^2)
    # are not polynomials, so (4 - y^2) Q' - (4/y) Q = y^(m+1) - [m even]
    # C(m, m/2) y has one polynomial solution, which sympy finds from a
    # general ansatz of degree m + 2
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    for m in range(9):
        a = sympy.symbols(f"a1:{m + 3}")
        Q = sum(c * y ** (i + 1) for i, c in enumerate(a))
        lhs = (4 - y ** 2) * sympy.diff(Q, y) - 4 * sympy.cancel(Q / y)
        rhs = y ** (m + 1) - (sympy.binomial(m, m // 2) * y
                              if m % 2 == 0 else 0)
        (sol,) = sympy.solve(sympy.Poly(lhs - rhs, y).coeffs(), a,
                             dict=True)
        assert len(sol) == len(a), m
        mine = sympy.sympify(poly_to_str(q2_poly(m)).replace("^", "**"))
        assert sympy.expand(mine - Q.subs(sol)) == 0, m


def test_series_identity_and_kappa():
    lg = log_one_plus_sqrt(30)
    for m in range(9):
        rep = verify_series_identity(m, 30, lg)
        assert rep.ok, rep.line()
    # odd-m constants vanish; kappa_0 is exactly log 2
    assert kappa_constant(0) == (ZERO, ONE)
    assert kappa_constant(1) == (ZERO, ZERO)
    assert kappa_constant(3) == (ZERO, ZERO)
    # frozen even-m constants (independently derived by x^0 matching)
    assert kappa_constant(2) == (Rat(-1), Rat(2))
    assert kappa_constant(4) == (Rat(-7, 2), Rat(6))
    assert kappa_constant(6) == (Rat(-37, 3), Rat(20))
    assert kappa_constant(8) == (Rat(-533, 12), Rat(70))


def test_series_identity_empty_window_is_inconclusive():
    # order N < m + 2 leaves no coefficient to compare: (8, 4) used to pass
    # with a kappa read off a truncated coefficient, (10, 0) on 0 cases
    for m, N in ((8, 4), (10, 0)):
        rep = verify_series_identity(m, N, log_one_plus_sqrt(N))
        assert rep.status == "inconclusive" and rep.n_cases == 0, rep.line()
    # from N = m + 2 on, every pass reports the true kappa_m
    for m in range(9):
        kq, kp = kappa_constant(m)
        for N in range(m + 2, m + 6):
            rep = verify_series_identity(m, N, log_one_plus_sqrt(N))
            assert rep.ok and rep.n_cases > 0, rep.line()
            assert rep.witness == f"kappa = {kq} + {kp}*log2"


def test_kappa_closed_form_matches_x0_matching():
    # at order m + 2 the identity compares x^0 alone, so each pass confirms
    # the closed form by the matching route; odd m give (0, 0)
    for m in range(41):
        N = m + 2
        rep = verify_series_identity(m, N, log_one_plus_sqrt(N))
        assert rep.ok, rep.line()
    assert kappa_constant(7) == (ZERO, ZERO)
    # C(10, 5) = 252 and H_10 - H_5 = 1627/2520
    assert kappa_constant(10) == (Rat(-1627, 10), Rat(252))


def test_a_wrong_kappa_fails_the_series_identity_and_h_m(monkeypatch):
    # kappa_4 + 1: the matched constant no longer meets the closed form,
    # and h_4 differs from its direct reduction on the s^2 it rides on
    kappa = template.kappa_constant

    def shifted(m):
        kq, kp = kappa(m)
        return (kq + 1, kp) if m == 4 else (kq, kp)

    monkeypatch.setattr(template, "kappa_constant", shifted)
    rep = verify_series_identity(4, 30, log_one_plus_sqrt(30))
    assert rep.status == "fail" and rep.n_cases == 30
    assert rep.witness == ("x^0 matching gives kappa = -7/2 + 6*log2, the "
                           "closed form -5/2 + 6*log2")
    rep = verify_h_m(4, 12, 8, template.h_m_inputs(4, 12, 8))
    assert rep.status == "fail" and rep.n_cases == 63
    assert rep.witness == "mismatch at s^2 l^0: -1"


def test_kappa_log2_part_is_central_binomial():
    # the log2 coefficient of kappa_m is C(m, m/2) for even m
    for m in range(0, 10, 2):
        assert kappa_constant(m)[1] == comb(m, m // 2)


def test_kappa_by_sympy():
    # an independent expansion: kappa_m is minus the x^0 coefficient of
    # Q1(1/x) + Q2(1/x) sqrt(1-4x^2) - C(m,m/2) log(1 + sqrt(1-4x^2))
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rt = sympy.sqrt(1 - 4 * x ** 2)

    def at_inv_x(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** -m[5]
                   for m, c in p.terms.items())

    pinned = {0: sympy.log(2), 2: -1 + 2 * sympy.log(2),
              4: sympy.Rational(-7, 2) + 6 * sympy.log(2)}
    for m in range(0, 9, 2):
        closed = (at_inv_x(q1_poly(m)) + at_inv_x(q2_poly(m)) * rt
                  - comb(m, m // 2) * sympy.log(1 + rt))
        c0 = sympy.series(closed, x, 0, 1).removeO().coeff(x, 0)
        kq, kp = kappa_constant(m)
        mine = (sympy.Rational(kq.numerator, kq.denominator)
                + sympy.Rational(kp.numerator, kp.denominator)
                * sympy.log(2))
        assert sympy.expand(mine + c0) == 0, m
        if m in pinned:
            assert sympy.expand(mine - pinned[m]) == 0, m


def test_h_m_small_caps():
    inputs = template.h_m_inputs(3, 8, 5)
    for m in range(4):
        rep = verify_h_m(m, 8, 5, inputs)
        assert rep.ok, rep.line()


def test_h_m_cap_guard():
    # the caps leave nothing to compare, so no input series is read
    rep = verify_h_m(6, 2, 3, None)
    assert rep.status == "inconclusive"


def test_h_m_fails_with_the_degree_witness(monkeypatch):
    # h_2 and its direct reduction agree, but carry s^3, of weighted degree
    # 6 > 2m = 4: the first such term in key order is the witness, and
    # s^3 l, of weighted degree 4, is within the bound
    S, L = 8, 5
    main = Series2({(1, 0): ONE, (3, 0): Rat(-7, 2), (3, 1): Rat(5)}, S, L)
    monkeypatch.setattr(template, "h_m_series",
                        lambda *args: (main, Series2.zero(S, L)))
    monkeypatch.setattr(template, "direct_reduction", lambda *args: main)
    # the two patched series read no input
    rep = verify_h_m(2, S, L, (None,) * 4)
    assert rep.status == "fail" and rep.n_cases == 3
    assert rep.witness == "s^3*l^0 coeff -7/2 has weighted degree 6"


# the caps at which the closed-form 1 + r and the root are checked against
# the route through the inverse of 1 + lambda s and the products it needs
_ROUTE_CAPS = [(12, 8), (14, 12), (20, 12), (3, 0), (1, 5)]


def _inverse_route(S, L):
    """s, 1 + lambda s, tau and 1 + r = 1 + s (1 + lambda s)^-1 + tau at
    caps (S, L), built through `Series2.inverse` and products."""
    s = Series2.var("s", S, L)
    one_ls = 1 + Series2.var("l", S, L) * s
    tau = Series2({(0, c): v for (_, c), v in tau_series(L).coeffs.items()},
                  S, L)
    return s, one_ls, tau, 1 + s * one_ls.inverse() + tau


@pytest.mark.parametrize("S, L", _ROUTE_CAPS)
def test_one_plus_r_matches_the_inverse_route(S, L):
    assert template._one_plus_r(S, L) == _inverse_route(S, L)[3]


@pytest.mark.parametrize("S, L", _ROUTE_CAPS)
def test_base_series_root_squares_back_and_b_is_the_product(S, L):
    s, one_ls, _, _ = _inverse_route(S, L)
    one_r, root, b = template.base_series(S, L)
    assert one_r == template._one_plus_r(S, L)
    assert root * root == one_r * one_r - s.scale(4)
    assert b == s + one_ls * root


@pytest.mark.parametrize("S, L", _ROUTE_CAPS)
def test_h_m_log_matches_log_big_minus_log_one_plus_lambda_s(S, L):
    s, one_ls, tau, _ = _inverse_route(S, L)
    b = template.base_series(S, L)[2]
    lg_big, l2_big = (1 + one_ls * tau + (one_ls - 1) + b).log()
    lg_small, l2_small = one_ls.log()
    assert not l2_small and l2_big == 1
    lg, l2 = template.h_m_inputs(0, S, L)[2]
    assert lg == lg_big - lg_small and l2 == l2_big


def test_h_m_inputs_operation_counts(monkeypatch):
    # one inverse (inside the log), one sqrt, one log and two products:
    # (1 + r)^2 and the product inside the log; m_max = 0 asks for no power
    # of 1 + r, and the relation series is written down with no product
    counts = {"inverse": 0, "sqrt": 0, "log": 0, "mul_trunc2": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("inverse", "sqrt", "log"):
        monkeypatch.setattr(Series2, name, spy(name, getattr(Series2, name)))
    monkeypatch.setattr(series, "mul_trunc2",
                        spy("mul_trunc2", series.mul_trunc2))
    template.h_m_inputs(0, 12, 8)
    assert counts == {"inverse": 1, "sqrt": 1, "log": 1, "mul_trunc2": 2}


def test_hm_suite_builds_the_powers_of_one_plus_r_once(monkeypatch, capsys):
    calls = []
    build = template.h_m_inputs

    def spy(m_max, S, L):
        calls.append((m_max, S, L))
        return build(m_max, S, L)

    monkeypatch.setattr(template, "h_m_inputs", spy)
    assert main(["hm", "--m-max", "5", "--s-cap", "6",
                 "--lambda-cap", "4"]) == 0
    assert calls == [(5, 6, 4)]
    # an m above 2 S - 1 is inconclusive before it needs a power, and so is
    # every m at a negative lambda cap
    calls.clear()
    main(["hm", "--m-max", "5", "--s-cap", "2", "--lambda-cap", "4"])
    assert calls == [(3, 2, 4)]
    calls.clear()
    main(["hm", "--m-max", "5", "--lambda-cap", "-1"])
    assert calls == []
    capsys.readouterr()


def test_hm_suite_builds_each_series_once(monkeypatch, capsys):
    # a cold `verify hm` builds the base series at (S, L) and the relation
    # series at (2S, L) once each, and every m reads them
    calls = []
    for fn in (template.base_series, template.relation_series):
        _spy_every_binding(monkeypatch, fn, calls, fn.__name__)
    _clear_caches()
    assert main(["hm"]) == 0
    capsys.readouterr()
    assert calls == [("base_series", (12, 8)), ("relation_series", (24, 8))]


def test_h_m_series_reads_a_prefix_of_the_shared_powers():
    pows, root, log_pair, _ = template.h_m_inputs(6, 8, 5)
    assert len(pows) == 7 and pows[2] == pows[1] * pows[1]
    for m in range(7):
        kappa = kappa_constant(m)
        assert template.h_m_series(m, 8, 5, kappa, pows, root, log_pair) == \
            template.h_m_series(m, 8, 5, kappa, pows[:m + 1], root, log_pair)
