"""The sequence three ways: closed form, algebraic series, lattice count."""

import pytest
from hypothesis import given, settings, strategies as st

from tutteval import tutte
from tutteval.exactnum import Rat
from tutteval.series import Series2
from tutteval.tutte import (TAMARI_MAX, binary_trees, lagrange_report,
                            phi_coeff_lagrange, phi_series,
                            _tamari_closure, tamari_interval_count,
                            tau_from_phi, tau_series, three_way_report,
                            tutte_coeff)

# first terms of the sequence, frozen from the closed form and cross-checked
# against the published sequence
EXPECTED = (1, 3, 13, 68, 399, 2530)


def test_closed_form_values():
    for i, v in enumerate(EXPECTED, start=1):
        assert tutte_coeff(i) == Rat(v)
    # every value is a positive integer
    for i in range(1, 25):
        q = tutte_coeff(i)
        assert q.denominator == 1 and q > 0


def test_algebraic_route():
    tau = tau_from_phi(6)
    for i, v in enumerate(EXPECTED, start=1):
        assert tau.coeff(0, i) == Rat(v)


def test_tau_series_route():
    tau = tau_series(6)
    for i, v in enumerate(EXPECTED, start=1):
        assert tau.coeff(0, i) == Rat(v)


def _phi_fixed_point(L):
    """The second route to phi = lambda (1+phi)^4: fixed-point iteration
    on series products, which gains one order per pass, so pass k fixes
    the lambda^k coefficient and runs at lambda-cap k."""
    coeffs = {}
    for k in range(1, L + 1):
        coeffs = ((1 + Series2(coeffs, 0, k)) ** 4).shift(0, 1).coeffs
    return Series2(coeffs, 0, L)


def test_phi_lagrange_agreement():
    phi = phi_series(300)
    assert len(phi.coeffs) == 300
    for n in range(1, 301):
        assert phi.coeff(0, n) == phi_coeff_lagrange(n)


def test_phi_power_recurrence_matches_the_fixed_point():
    for L in range(1, 61):
        phi = phi_series(L)
        assert phi.caps == (0, L)
        assert phi.coeffs == _phi_fixed_point(L).coeffs
        assert all(type(v) is int for v in phi.coeffs.values())


def test_phi_series_needs_a_positive_order():
    for L in (0, -3):
        with pytest.raises(ValueError, match="L >= 1"):
            phi_series(L)


def test_phi_first_values():
    # (1/n) C(4n, n-1): 1, 4, 22, 140, ...
    assert phi_coeff_lagrange(1) == Rat(1)
    assert phi_coeff_lagrange(2) == Rat(4)
    assert phi_coeff_lagrange(3) == Rat(22)
    assert phi_coeff_lagrange(4) == Rat(140)


def test_catalan_tree_counts():
    # Catalan numbers 1, 1, 2, 5, 14, 42, 132
    for i, c in enumerate((1, 1, 2, 5, 14, 42, 132)):
        assert len(binary_trees(i)) == c


def test_tamari_counts_match():
    for i in range(1, TAMARI_MAX + 1):
        assert Rat(tamari_interval_count(i)) == tutte_coeff(i)


def tamari_poset_facts(i: int) -> dict:
    """Order axioms and the numbers of maximal and minimal elements of the
    reachability closure behind the interval counts."""
    trees, reach = _tamari_closure(i)
    n = len(trees)
    reflexive = all(reach[j] >> j & 1 for j in range(n))
    antisym = all(not (reach[j] >> k & 1 and reach[k] >> j & 1)
                  for j in range(n) for k in range(j + 1, n))
    transitive = all(reach[j] | reach[k] == reach[j]
                     for j in range(n) for k in range(n) if reach[j] >> k & 1)
    maxima = sum(1 for j in range(n) if reach[j] == 1 << j)
    minima = sum(1 for j in range(n)
                 if sum(reach[k] >> j & 1 for k in range(n)) == 1)
    return {"reflexive": reflexive, "antisymmetric": antisym,
            "transitive": transitive, "maxima": maxima, "minima": minima}


@given(st.integers(1, 5))
@settings(max_examples=5, deadline=None)
def test_tamari_is_a_lattice_order(i):
    facts = tamari_poset_facts(i)
    assert facts["reflexive"] and facts["antisymmetric"] and facts["transitive"]
    # one top (right comb) and one bottom (left comb)
    assert facts["maxima"] == 1 and facts["minima"] == 1


def test_reports():
    assert three_way_report().ok
    assert lagrange_report(40).ok


def test_three_way_empty_range_is_inconclusive():
    rep = three_way_report(0)
    assert rep.status == "inconclusive" and rep.n_cases == 0
    assert rep.witness == ("max_i 0 leaves no coefficient to compare; "
                           "need max_i >= 1")


def test_three_way_needs_a_tamari_comparison():
    # without a Tamari count only two of the three routes would meet, and
    # above the enumeration limit the flag would silently stop at the limit
    for tamari_max in (0, -1, TAMARI_MAX + 1):
        rep = three_way_report(6, tamari_max)
        assert rep.status == "inconclusive" and rep.n_cases == 0
        assert rep.witness == (f"tamari_max {tamari_max} is outside "
                               f"1..TAMARI_MAX = {TAMARI_MAX}: no Tamari "
                               "interval count to compare")
    # one Tamari count is a real comparison: 6 coefficients plus i = 1
    rep = three_way_report(6, 1)
    assert rep.ok and rep.n_cases == 7


@pytest.mark.parametrize("name, i, n_cases, witness", [
    # the closed form meets the algebraic route first, at i = 1..6
    ("tutte_coeff", 3, 2, "i=3: closed form 14, algebraic 13"),
    # then the Tamari counts, after the six algebraic cases
    ("tamari_interval_count", 4, 9, "i=4: Tamari count 69, closed form 68"),
])
def test_three_way_fails_on_a_wrong_route(monkeypatch, name, i, n_cases,
                                          witness):
    # one route off by one at i: the report fails there with both values
    right = getattr(tutte, name)
    monkeypatch.setattr(tutte, name, lambda j: right(j) + (j == i))
    rep = three_way_report()
    assert rep.status == "fail" and rep.n_cases == n_cases
    assert rep.witness == witness


def test_lagrange_fails_on_a_wrong_phi_coefficient(monkeypatch):
    # [lambda^5] phi = C(20, 4) / 5 = 969, made 970 in the series the
    # functional equation gives; n = 1..4 pass first
    right = tutte.phi_series

    def wrong(L):
        phi = right(L)
        coeffs = dict(phi.coeffs)
        coeffs[(0, 5)] += 1
        return Series2(coeffs, *phi.caps)

    monkeypatch.setattr(tutte, "phi_series", wrong)
    rep = lagrange_report(40)
    assert rep.status == "fail" and rep.n_cases == 4
    assert rep.witness == "n=5: series 970, closed form 969"


@given(st.integers(1, 30))
@settings(max_examples=20)
def test_closed_form_is_integral(i):
    # 2(4i+1)!/((i+1)!(3i+2)!) reduces to an integer
    assert tutte_coeff(i).denominator == 1
