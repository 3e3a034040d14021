"""Template integrals, the auxiliary ODE families, the Laurent identity
with its pinned constants, and the h_m equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from tutteval.exactnum import ONE, Rat, ZERO, binomial
from tutteval.polyring import Poly, poly_parse
from tutteval.series import Series2, Series3
from tutteval.template import (integrate, kappa_constant, monomial_template,
                               q1_poly, q2_poly, reduce_templates_series,
                               verify_h_m, verify_q2_ode,
                               verify_series_identity)


def test_monomial_template_values():
    # C(2n-2b, n-b) on the degree-matched even lattice
    assert monomial_template(0, 1, 1).value == ONE          # C(0,0)
    assert monomial_template(2, 0, 1).value == Rat(2)       # C(2,1)
    assert monomial_template(4, 0, 2).value == Rat(6)       # C(4,2)
    assert monomial_template(2, 1, 2).value == Rat(2)
    assert monomial_template(0, 2, 2).value == ONE
    # off-lattice: degree mismatch or odd t-power
    assert monomial_template(1, 0, 1).value == ZERO
    assert monomial_template(2, 0, 2).value == ZERO
    assert monomial_template(3, 1, 2).value == ZERO


@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8))
@settings(max_examples=60)
def test_monomial_template_closed_form(a, b, n):
    v = monomial_template(a, b, n).value
    if a % 2 == 0 and a + 2 * b == 2 * n:
        assert v == binomial(2 * n - 2 * b, n - b)
    else:
        assert v == ZERO


def test_integrate_hand_examples():
    # the two lowest relations integrate to zero by hand
    assert integrate(poly_parse("s - 1/2*t^2"), 1) == ZERO
    assert integrate(poly_parse("1/3*t^4 - t^2*s"), 2) == ZERO
    assert integrate(poly_parse("t^2"), 1) == Rat(2)
    with pytest.raises(ValueError):
        integrate(Poly.var("l"), 1)


def test_reduce_templates():
    # t^2 -> 2s, odd powers die, the lambda exponent rides along
    A = Series3({(2, 0, 0): ONE, (3, 0, 0): ONE, (4, 1, 1): ONE}, 12, 2)
    assert reduce_templates_series(A) == \
        Series2({(1, 0): Rat(2), (3, 1): Rat(6)}, 6, 2)


@given(st.integers(1, 8), st.integers(0, 4), st.integers(1, 10))
@settings(max_examples=60)
def test_reduction_preserves_integrals(a, b, n):
    p = Poly({(a, b, 0, 0, 0, 0): Rat(3, 2)})
    reduced = reduce_templates_series(Series3({(a, b, 0): Rat(3, 2)},
                                              a + 2 * b, 0))
    assert integrate(p, n) == integrate(reduced.lambda_slice(0), n)


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


def test_series_identity_and_kappa():
    for m in range(9):
        rep = verify_series_identity(m, 30)
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
        rep = verify_series_identity(m, N)
        assert rep.status == "inconclusive" and rep.n_cases == 0, rep.line()
    # from N = m + 2 on, every pass reports the true kappa_m
    for m in range(9):
        kq, kp = kappa_constant(m)
        for N in range(m + 2, m + 6):
            rep = verify_series_identity(m, N)
            assert rep.ok and rep.n_cases > 0, rep.line()
            assert rep.witness == f"kappa = {kq} + {kp}*log2"


def test_kappa_log2_part_is_central_binomial():
    # the log2 coefficient of kappa_m is C(m, m/2) for even m
    for m in range(0, 10, 2):
        assert kappa_constant(m)[1] == binomial(m, m // 2)


def test_h_m_small_caps():
    for m in range(4):
        rep = verify_h_m(m, 8, 5)
        assert rep.ok, rep.line()


def test_h_m_cap_guard():
    rep = verify_h_m(6, 2, 3)
    assert rep.status == "inconclusive"
