"""The relation table f_{k,i}, vanishing of all matched template integrals,
the quotient Hilbert series, and the curvature substitution identities."""

import pytest

from tutteval.exactnum import ZERO
from tutteval.polyring import poly_parse
from tutteval.template import integrate
from tutteval.verifier import (FTable, conjecture_reports, f_table,
                               hilbert_check, hilbert_coeffs, iso_check,
                               restriction_spot_check, verify_vanishing)


def test_f_table_low_entries():
    tab = f_table(3, 0)
    # log(1 + t + s + ...) starts t + (s - t^2/2) + (t^3/3 - t s) + ...
    assert tab.get(1, 0) == poly_parse("t")
    assert tab.get(2, 0) == poly_parse("s - 1/2*t^2")
    assert tab.get(3, 0) == poly_parse("1/3*t^3 - t*s")


def test_f_table_weighted_homogeneous():
    tab = f_table(6, 2)
    assert tab.degree_report().ok
    # completeness: every (k, i) with k >= 1 present (f is a log of 1 + ...)
    for k in range(1, 7):
        for i in range(3):
            assert not tab.get(k, i).is_zero()


def test_f_table_bad_caps():
    with pytest.raises(ValueError):
        f_table(0, 0)


def test_low_entries_integrate_to_zero():
    # the two hand-checkable cases behind the smallest dimension
    assert integrate(poly_parse("s - 1/2*t^2"), 1) == ZERO
    assert integrate(poly_parse("1/3*t^3 - t*s") * poly_parse("t"), 2) == ZERO


def test_vanishing_small():
    for n in (1, 2, 3):
        rep = verify_vanishing(n, 3)
        assert rep.ok, rep.line()
        assert rep.n_cases > 0


def test_flat_column():
    # the lambda = 0 column: templates annihilate f_{n+1,0} and f_{n+2,0}
    assert verify_vanishing(2, 0).ok
    # n = 0: no degree-matched cases at all, so nothing was compared
    rep = verify_vanishing(0, 0)
    assert rep.status == "inconclusive" and rep.n_cases == 0


def test_empty_ranges_are_inconclusive():
    # a direct call whose range holds no case says so instead of passing
    rep = verify_vanishing(1, 0, ks=(5,))
    assert rep.status == "inconclusive" and rep.n_cases == 0
    assert rep.witness == ("no template integral of degree 2n = 2 meets k "
                           "in [5] and i <= 0")
    assert verify_vanishing(2, -1).status == "inconclusive"
    rep = FTable(0, 0).degree_report()
    assert rep.status == "inconclusive"
    assert rep.witness == "the table has no entry to check"
    # n = 1, 2 have no case for k = n + 3, n + 4; n = 3 has one
    rep = restriction_spot_check(2, 4)
    assert rep.status == "inconclusive" and rep.n_cases == 0
    rep = restriction_spot_check(3, 0)
    assert rep.ok and rep.n_cases == 1


def test_cap_guard():
    tab = f_table(3, 0)
    with pytest.raises(ValueError):
        verify_vanishing(4, 0, tab)


def test_conjecture_reports_order_and_jobs():
    seq = conjecture_reports(3, 2)
    assert [r.params["n"] for r in seq] == [1, 2, 3]
    assert all(r.ok for r in seq)
    par = conjecture_reports(3, 2, jobs=2)
    # everything but the wall time (scrubbed by to_json_obj) must match
    assert [r.to_json_obj() for r in par] == [r.to_json_obj() for r in seq]


def test_restriction_spot_check():
    assert restriction_spot_check(3, 2).ok


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
