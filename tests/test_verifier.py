"""The relation table f_{k,i}, vanishing of all matched template integrals,
the quotient Hilbert series, and the curvature substitution identities."""

import re

import pytest

from tutteval import verifier
from tutteval.exactnum import Rat, ZERO
from tutteval.polyring import Poly
from tutteval.series import Series2
from tutteval.template import integrate
from tutteval.verifier import (FTable, conjecture_reports, f_table,
                               hilbert_check, hilbert_coeffs, iso_check,
                               restriction_spot_check, verify_vanishing)

from test_template import _relation_series_3var


t, s = Poly.var("t"), Poly.var("s")


def test_f_table_low_entries():
    tab = f_table(3, 0)
    # log(1 + t + s + ...) starts t + (s - t^2/2) + (t^3/3 - t s) + ...
    assert tab.get(1, 0) == t
    assert tab.get(2, 0) == s - Rat(1, 2) * t ** 2
    assert tab.get(3, 0) == Rat(1, 3) * t ** 3 - t * s


def test_f_table_weighted_homogeneous():
    tab = f_table(6, 2)
    assert tab.degree_report().ok
    # completeness: every (k, i) with k >= 1 present (f is a log of 1 + ...)
    for k in range(1, 7):
        for i in range(3):
            assert not tab.get(k, i).is_zero()


def test_f_table_degrees_fails_on_a_term_of_the_wrong_degree():
    # t, of weighted degree 1, in f_{3,1}, of degree 5: the entries before
    # it in key order, (1, 0) to (3, 0), pass first
    tab = f_table(6, 2)
    tab.entries[(3, 1)] = tab.entries[(3, 1)] + t
    rep = tab.degree_report()
    assert rep.status == "fail" and rep.n_cases == 7
    assert rep.witness == "f_{3,1} contains t^1 s^0"


@pytest.mark.parametrize("K, I", [(6, 2), (9, 4)])
def test_f_table_matches_three_variable_route(K, I):
    # the regrouping by (k, i) = (a + 2b - 2c, c) of the rational
    # three-variable route, entry by entry; integral coefficients are ints
    grouped = {}
    for (a, b, c), v in _relation_series_3var(K + 2 * I, I).coeffs.items():
        k = a + 2 * b - 2 * c
        if 1 <= k <= K:
            grouped.setdefault((k, c), {})[(a, b, 0, 0, 0, 0)] = v
    tab = f_table(K, I)
    assert (tab.K_max, tab.I_max) == (K, I)
    assert tab.entries == {key: Poly(terms) for key, terms in grouped.items()}
    for p in tab.entries.values():
        assert all(type(v) is int or v.denominator > 1
                   for v in p.terms.values())


def test_f_table_bad_caps():
    with pytest.raises(ValueError):
        f_table(0, 0)


def test_low_entries_integrate_to_zero():
    # the two hand-checkable cases behind the smallest dimension
    assert integrate(s - Rat(1, 2) * t ** 2, 1) == ZERO
    assert integrate((Rat(1, 3) * t ** 3 - t * s) * t, 2) == ZERO


def test_vanishing_small():
    tab = f_table(5, 3)
    for n in (1, 2, 3):
        rep = verify_vanishing(n, 3, tab)
        assert rep.ok, rep.line()
        assert rep.n_cases > 0


def test_flat_column():
    # the lambda = 0 column: templates annihilate f_{n+1,0} and f_{n+2,0}
    tab = f_table(4, 0)
    assert verify_vanishing(2, 0, tab).ok
    # n = 0: no degree-matched cases at all, so nothing was compared
    rep = verify_vanishing(0, 0, tab)
    assert rep.status == "inconclusive" and rep.n_cases == 0


def test_empty_ranges_are_inconclusive():
    # a direct call whose range holds no case says so instead of passing
    rep = verify_vanishing(1, 0, f_table(5, 0), ks=(5,))
    assert rep.status == "inconclusive" and rep.n_cases == 0
    assert rep.witness == ("no template integral of degree 2n = 2 meets k "
                           "in [5] and i <= 0")
    assert verify_vanishing(2, -1, f_table(4, 0)).status == "inconclusive"
    rep = FTable(0, 0).degree_report()
    assert rep.status == "inconclusive"
    assert rep.witness == "the table has no entry to check"
    # n = 1, 2 have no case for k = n + 3, n + 4; n = 3 has one
    rep = restriction_spot_check(2, 4, f_table(6, 4))
    assert rep.status == "inconclusive" and rep.n_cases == 0
    rep = restriction_spot_check(3, 0, f_table(7, 0))
    assert rep.ok and rep.n_cases == 1


def test_cap_guard():
    tab = f_table(3, 0)
    with pytest.raises(ValueError):
        verify_vanishing(4, 0, tab)


def test_conjecture_reports_order_and_jobs():
    tab = f_table(5, 2)
    seq = conjecture_reports(3, 2, 1, tab)
    assert [r.params["n"] for r in seq] == [1, 2, 3]
    assert all(r.ok for r in seq)
    par = conjecture_reports(3, 2, 2, tab)
    # everything but the wall time (scrubbed by to_json_obj) must match
    assert [r.to_json_obj() for r in par] == [r.to_json_obj() for r in seq]


def test_restriction_spot_check():
    # from a table that reaches k = n_max + 4, and from a smaller one,
    # which the check replaces
    assert restriction_spot_check(3, 2, f_table(7, 2)).ok
    assert restriction_spot_check(3, 2, f_table(5, 2)).ok


def test_restriction_fails_on_a_doubled_coefficient():
    # at the caps of `verify all`, t^10 doubled in f_{8,1} = t^10 - 9 t^8 s
    # + ... changes its one integral against t^0 s^0 in dimension 5 (k = 8
    # = n + 3) by C(10, 5) = 252; the failing dimension's report comes back,
    # with its own count of cases, 2 for k = 8 and i = 0 before it
    tab = f_table(9, 4)
    f = tab.get(8, 1)
    t10 = (10, 0, 0, 0, 0, 0)
    bad = FTable(tab.K_max, tab.I_max,
                 {**tab.entries, (8, 1): f + Poly({t10: f.terms[t10]})})
    rep = restriction_spot_check(5, 4, bad)
    assert rep.check == "vanishing_restriction"
    assert rep.params == {"n_max": 5, "i_max": 4, "offsets": [3, 4]}
    assert rep.status == "fail" and rep.n_cases == 2
    assert rep.witness == "integral of t^0 s^0 f_{8,1} = 252"


def test_hilbert_fails_on_a_pair_with_a_common_factor(monkeypatch):
    # f_{5,0} replaced by t f_{4,0}: the pair shares f_{4,0}, so it is no
    # regular sequence, and in degree 5 = n + 2 its multiples span one
    # dimension less than the series predicts
    n = 3
    right = verifier.f_table

    def shared(K, I):
        tab = right(K, I)
        return FTable(tab.K_max, tab.I_max,
                      {**tab.entries, (n + 2, 0): t * tab.get(n + 1, 0)})

    monkeypatch.setattr(verifier, "f_table", shared)
    rep = hilbert_check(n)
    assert rep.status == "fail" and rep.n_cases == 5
    assert rep.witness == "degree 5: quotient dim 2, series predicts 1"


def test_hilbert_coeffs():
    # n = 1: (1-q^2)(1-q^3)/((1-q)(1-q^2)) = 1 + q + q^2
    assert hilbert_coeffs(1, 4) == [1, 1, 1, 0, 0]
    # palindromic about degree 2n with total sum (n+1)^2... check n = 2
    c = hilbert_coeffs(2, 8)
    assert c == [1, 1, 2, 1, 1, 0, 0, 0, 0]


def test_hilbert_check():
    # the graded ranks come from `exactnum.rank`; each degree k <= 2n + 4
    # and each palindromic pair is one case
    for n in range(1, 13):
        rep = hilbert_check(n)
        assert rep.ok, rep.line()
        assert rep.n_cases == (2 * n + 5) + (2 * n + 1)


def test_iso_check():
    assert iso_check(8, 6).ok


def test_iso_check_sees_a_wrong_square_root(monkeypatch):
    # sq * sq^-1 = 1 holds for any invertible sq; only sq * sq = 1 - lambda s
    # sees a wrong root
    sqrt = Series2.sqrt

    def perturbed(self):
        root = sqrt(self)
        coeffs = dict(root.coeffs)
        coeffs[(1, 1)] = coeffs.get((1, 1), 0) + 32
        return Series2(coeffs, *root.caps)

    assert iso_check(10, 8).ok
    monkeypatch.setattr(Series2, "sqrt", perturbed)
    rep = iso_check(10, 8)
    assert rep.status == "fail" and rep.n_cases == 0
    assert rep.witness == "sq * sq differs from 1 - lambda s"


def test_vanishing_fails_on_a_doubled_coefficient():
    # doubling any term of f_{4,1} changes the one template integral of
    # degree 6 with k = 4 (n = 3), and any term of f_{5,0} the first one of
    # degree 8, that of t^3 f_{5,0} (n = 4); the witness carries the value
    # `integrate` gives on the Poly product
    tab = f_table(6, 2)
    for n, k, i in ((3, 4, 1), (4, 5, 0)):
        f = tab.get(k, i)
        assert len(f.terms) > 1
        for mono, c in f.terms.items():
            bad = FTable(tab.K_max, tab.I_max,
                         {**tab.entries, (k, i): f + Poly({mono: c})})
            rep = verify_vanishing(n, 2, bad)
            assert rep.status == "fail"
            found = re.fullmatch(
                rf"integral of t\^(\d+) s\^(\d+) f_\{{{k},{i}\}} = (.+)",
                rep.witness)
            m, l = int(found[1]), int(found[2])
            val = integrate(Poly({(m, l, 0, 0, 0, 0): 1}) * bad.get(k, i), n)
            assert val != 0 and found[3] == str(val)
            assert (m, l) == ((0, 0) if n == 3 else (3, 0))
    # 2 t^5 - 7 t^3 s integrates to 2 C(8,4) - 7 C(6,3) = 0 against t^3 but
    # to 2 C(6,3) - 7 C(4,2) = -2 against t s: the first nonzero integral
    # of dimension 4 is that of t s f_{5,0}
    f = tab.get(5, 0) + Poly({(5, 0, 0, 0, 0, 0): 2, (3, 1, 0, 0, 0, 0): -7})
    bad = FTable(tab.K_max, tab.I_max, {**tab.entries, (5, 0): f})
    rep = verify_vanishing(4, 0, bad)
    assert rep.status == "fail" and rep.n_cases == 1
    assert rep.witness == "integral of t^1 s^1 f_{5,0} = -2"


def test_vanishing_skips_terms_off_the_degree():
    # as in `integrate`, a term of f_{5,0} off weighted degree 5 reaches no
    # monomial of degree 2n, so it adds nothing to any integral
    tab = f_table(6, 0)
    f = tab.get(5, 0) + Poly({(0, 0, 0, 0, 0, 0): 1, (2, 3, 0, 0, 0, 0): 5})
    bad = FTable(tab.K_max, tab.I_max, {**tab.entries, (5, 0): f})
    assert integrate(Poly({(3, 0, 0, 0, 0, 0): 1}) * f, 4) == 0
    for n in (3, 4):
        rep = verify_vanishing(n, 0, bad)
        assert rep.ok and rep.n_cases == verify_vanishing(n, 0, tab).n_cases
