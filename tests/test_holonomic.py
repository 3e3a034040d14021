"""Derivative tower of the algebraic root, the two dependency vectors with
their band structure, and the recursively generated coefficient sequence."""

import json
from pathlib import Path

from tutteval import holonomic
from tutteval.exactnum import ONE, Rat
from tutteval.holonomic import (DependencyVector, PhiQuot, _pq_add, _pq_dlam,
                                _pq_eq, _pq_mul, _pq_scale, _rank4_witness,
                                b_direct, b_equality_report, b_recursion,
                                coprimality_report, dependency_report,
                                find_R, find_Rhat, p0_quot, p0_report,
                                p0_series_report, pq_from_poly, q_tower,
                                tower_oracle, weighted_degree)
from tutteval.polyring import (Poly, partial_derivative, poly_parse,
                               poly_to_str)

s = Poly.var("s")
FIXTURES = Path(__file__).parent / "fixtures"


# -- the first-order derivative ---------------------------------------------


def test_p0_closed_form():
    # phi' = (12 l phi^3 + 52 l phi^2 + 4 l phi - 36 l + 9 phi)
    #        / ((256 l - 27) l), as phi-coefficients
    num = poly_parse("12*l*f^3 + 52*l*f^2 + 4*l*f - 36*l + 9*f")
    den = poly_parse("256*l^2 - 27*l")
    p0 = p0_quot()
    assert len(p0.num) == 4
    for i in range(4):
        assert p0.num[i].scale(p0.c) * den == \
            p0.den_poly() * num.coeff_of("f", i)


def test_p0_solves_the_implicit_derivative():
    # P_phi phi' + P_lambda = 0 modulo P, with P0 built from P alone; the
    # inversion of P_phi needs no prime beyond l and 256 l - 27
    P = holonomic.P_DEFINING
    primes = list(holonomic._PRIMES)
    p0 = p0_quot.__wrapped__()
    assert holonomic._PRIMES == primes
    residue = _pq_add(_pq_mul(p0, pq_from_poly(partial_derivative(P, "f"))),
                      pq_from_poly(partial_derivative(P, "l")))
    assert residue.is_zero()


def test_p0_reports():
    assert p0_report().ok
    assert p0_series_report(20).ok


def test_p0_report_rejects_a_wrong_p0(monkeypatch):
    wrong = _pq_add(p0_quot(), pq_from_poly(poly_parse("f")))
    monkeypatch.setattr(holonomic, "p0_quot", lambda: wrong)
    rep = p0_report()
    assert rep.status == "fail" and rep.witness.startswith("got ")


# -- the factored-quotient arithmetic ---------------------------------------


def test_pq_roundtrip_and_ring_ops():
    a = pq_from_poly(poly_parse("2*f + l"))
    b = pq_from_poly(poly_parse("f^2 - 3"))
    assert _pq_eq(_pq_mul(a, b), pq_from_poly(
        poly_parse("2*f + l") * poly_parse("f^2 - 3")))
    assert _pq_eq(_pq_add(a, _pq_scale(a, Rat(-1))), PhiQuot([], {}, ONE))
    assert _pq_dlam(pq_from_poly(Poly.one())).is_zero()


def test_q_tower_oracle():
    # d^i F / d lambda^i = Q_i F as truncated series, i <= 3 fast
    assert tower_oracle(3, 14, 10).ok


# -- dependency vectors -----------------------------------------------------


def test_dependency_R():
    dv = find_R()
    assert dv.offset == 0 and len(dv.entries) == 5
    # the band R_{i,i-1} is a positive scalar times (s - 1)
    expected = {1: 15, 2: 96, 3: 324, 4: 486}
    for i in range(1, 5):
        band = dv.coeff(i, i - 1)
        assert band == (s - 1).scale(Rat(expected[i]))
    # nothing below the band
    for i in range(5):
        for k in range(i - 1):
            assert dv.coeff(i, k).is_zero()
    assert dependency_report("R").ok


def test_dependency_Rhat():
    dv = find_Rhat()
    assert dv.offset == 1 and len(dv.entries) == 5
    expected = {2: 126, 3: 612, 4: 1782, 5: 2430}
    for i in range(2, 6):
        band = dv.coeff(i, i - 2)
        assert band == (3 * s + 1).scale(Rat(expected[i]))
    for i in range(1, 6):
        for k in range(i - 2):
            assert dv.coeff(i, k).is_zero()
        # weighted degree bound 2(3 - i) with s:2, lambda:-2
        assert weighted_degree(dv.entry(i)) <= 2 * (3 - i)
    assert dependency_report("Rhat").ok


def test_dependency_vectors_match_pinned_fixtures():
    # `verify holonomic --fixtures` output, pinned when both vectors still
    # came from kernel minors: an independent check of Rhat's derivation
    for name, dv in (("dependency_R", find_R()),
                     ("dependency_Rhat", find_Rhat())):
        text = json.dumps([poly_to_str(p) for p in dv.entries], indent=1,
                          sort_keys=True)
        assert text == (FIXTURES / f"{name}.json").read_text(), name


def test_rank4_witness():
    tower = q_tower(3)
    assert _rank4_witness(tower[:4])[1] == (0, 1, 2, 3)
    # a repeated column leaves rank 3: no point gives a nonzero minor
    assert _rank4_witness([tower[0], tower[1], tower[2], tower[2]]) is None


def test_dependency_precondition_failure_is_a_report(monkeypatch):
    R = find_R()
    no_r0 = DependencyVector("R", 0, [Poly()] + R.entries[1:])
    find_Rhat.cache_clear()
    monkeypatch.setattr(holonomic, "find_R", lambda: no_r0)
    rep = dependency_report("Rhat")
    assert rep.status == "fail"
    assert rep.witness == "R_0 = 0: F cannot be eliminated from R"


def test_dependency_report_unknown_kind(monkeypatch):
    # an unknown kind is a fail report, decided before anything is built
    def build(*args):
        raise AssertionError("nothing may be built for an unknown kind")

    for name in ("find_R", "find_Rhat", "q_tower"):
        monkeypatch.setattr(holonomic, name, build)
    for kind in ("r", "Rhat2", ""):
        rep = dependency_report(kind)
        assert rep.status == "fail" and rep.n_cases == 0
        assert rep.params == {"kind": kind}
        assert repr(kind) in rep.witness


def test_q_tower_extends_without_mutation():
    q_tower.cache_clear()
    t3 = q_tower(3)
    t4 = q_tower(4)
    # one build per order, each extending the cached shorter tower, whose
    # elements it shares; a tower is a tuple, which no caller can change
    assert q_tower.cache_info().misses == 4
    assert len(t4) == 5 and q_tower(3) is t3
    assert all(a is b for a, b in zip(t3, t4))
    assert isinstance(t4, tuple)


def test_coprimality():
    assert coprimality_report().ok


# -- the b sequence ---------------------------------------------------------


def test_b_direct_low_orders():
    bs = b_direct(8, 4)
    assert bs.bl[0] == Poly.one()
    assert bs.bl[1] == 3 * s + 1
    assert bs.bl[2] == poly_parse("4*s^2 + 10*s + 6")
    assert bs.bl[3] == poly_parse("36*s^2 + 114*s + 78")
    assert bs.degree_report().ok


def test_b_recursion_matches_direct():
    rec, rep = b_recursion(6)
    assert rep.ok, rep.line()
    direct = b_direct(9, 6)
    eq = b_equality_report(direct, rec)
    assert eq.ok, eq.line()


def test_b_degree_bound():
    rec, rep = b_recursion(8)
    assert rep.ok
    for l, p in enumerate(rec.bl):
        assert p.degree("s") <= l
