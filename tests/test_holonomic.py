"""Derivative tower of the algebraic root, the two dependency vectors with
their band structure, and the recursively generated coefficient sequence."""

import json
import random
from itertools import combinations
from math import factorial, inf
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tutteval import holonomic
from tutteval.cli import _certified
from tutteval.exactnum import ONE, Rat
from tutteval.holonomic import (_PQ_ONE, KERNEL_PRIMES, BSeq,
                                DependencyVector, PhiQuot, _kernel_vector,
                                _pq_dlam, _pq_eq, _pq_mul, _pq_normalize,
                                _pq_scale, _pq_sum, _reduce_top,
                                _pi_step, _strip_pi, _strip_primes,
                                b_direct,
                                b_equality_report, b_recursion,
                                coprimality_report, dependency_report,
                                find_R, find_Rhat, p0_quot, p0_report,
                                p0_series_report, pq_from_poly, q_tower,
                                tower_columns, tower_oracle, w_quot)
from tutteval.polyring import (Poly, partial_derivative, poly_div_exact,
                               poly_to_str)

s, lam, phi = Poly.var("s"), Poly.var("l"), Poly.var("f")
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def vectors():
    """R and Rhat, built once for the tests that only read them."""
    R = find_R()
    return R, find_Rhat(R)


# -- the first-order derivative ---------------------------------------------


def test_p0_closed_form():
    # phi' = (12 l phi^3 + 52 l phi^2 + 4 l phi - 36 l + 9 phi)
    #        / ((256 l - 27) l), as phi-coefficients
    num = (12 * lam * phi ** 3 + 52 * lam * phi ** 2 + 4 * lam * phi
           - 36 * lam + 9 * phi)
    den = 256 * lam ** 2 - 27 * lam
    p0 = p0_quot()
    assert len(p0.num) == 4
    for i in range(4):
        assert p0.num[i].scale(p0.c) * den == \
            p0.den_poly() * num.as_univar("f")[i]


def test_p0_solves_the_implicit_derivative():
    # P_phi phi' + P_lambda = 0 modulo P, the identity that p0_report
    # certifies, with no prime beyond l and 256 l - 27
    P = holonomic.P_DEFINING
    p0 = p0_quot()
    assert set(p0.den) <= {holonomic.LAM, holonomic.SINGULAR}
    residue = _pq_sum([
        (ONE, _pq_mul(p0, pq_from_poly(partial_derivative(P, "f")))),
        (ONE, pq_from_poly(partial_derivative(P, "l")))])
    assert residue.is_zero()


def _to_sympy(sympy, p: Poly):
    return sympy.sympify(poly_to_str(p).replace("^", "**"))


def _sympy_gcd_is_const(*polys) -> bool:
    """Whether sympy's gcd of the polynomials is a constant."""
    sympy = pytest.importorskip("sympy")
    g = sympy.Integer(0)
    for p in polys:
        g = sympy.gcd(g, _to_sympy(sympy, p))
    return g.is_number


def test_p0_closed_form_by_sympy():
    # an independent route to the pinned closed form: -P_lambda / P_phi
    # minus it reduces to 0 modulo P
    sympy = pytest.importorskip("sympy")
    l, f = sympy.symbols("l f")
    P = f - l * (1 + f) ** 4
    num = _to_sympy(sympy, holonomic.P0_EXPECTED_NUM)
    den = sympy.Mul(*[_to_sympy(sympy, p) ** e
                      for p, e in holonomic.P0_EXPECTED_DEN.items()])
    residue = sympy.expand(-sympy.diff(P, l) * den - num * sympy.diff(P, f))
    assert sympy.rem(residue, P, f) == 0
    assert sympy.rem(residue + l, P, f) != 0


def test_p0_reports():
    assert p0_report().ok
    assert p0_series_report(20).ok


def test_p0_report_rejects_a_wrong_p0(monkeypatch):
    wrong = _pq_sum([(ONE, p0_quot()), (ONE, pq_from_poly(phi))])
    monkeypatch.setattr(holonomic, "p0_quot", lambda: wrong)
    rep = p0_report()
    assert rep.status == "fail" and rep.witness.startswith("got ")


def test_p0_series_fails_on_a_wrong_p0(monkeypatch):
    # P0 + phi differs from phi' from lambda^1 on, as phi = lambda + ...
    wrong = _pq_sum([(ONE, p0_quot()), (ONE, pq_from_poly(phi))])
    monkeypatch.setattr(holonomic, "p0_quot", lambda: wrong)
    rep = p0_series_report(20)
    assert rep.status == "fail" and rep.n_cases == 1
    assert rep.witness == "series mismatch"


# -- the factored-quotient arithmetic ---------------------------------------


def test_pq_roundtrip_and_ring_ops():
    a = pq_from_poly(2 * phi + lam)
    b = pq_from_poly(phi ** 2 - 3)
    assert _pq_eq(_pq_mul(a, b), pq_from_poly((2 * phi + lam) * (phi ** 2 - 3)))
    assert _pq_eq(_pq_sum([(ONE, a), (Rat(-1), a)]), PhiQuot([], {}, ONE))
    # a Poly multiplier in (s, lambda), and terms over different primes
    assert _pq_eq(_pq_sum([(lam, a), (Rat(3), b)]), pq_from_poly(
        lam * (2 * phi + lam) + 3 * (phi ** 2 - 3)))
    c = _pq_normalize([s], {holonomic.LAM: 2, holonomic.SINGULAR: 1}, ONE)
    assert _pq_eq(_pq_sum([(lam * holonomic.SINGULAR, c), (s, c)]),
                  _pq_normalize([s * (lam * holonomic.SINGULAR + s)],
                                dict(c.den), ONE))
    assert _pq_dlam(pq_from_poly(Poly.one())).is_zero()


def _bivariate(max_deg: int, lam: bool):
    mono = st.tuples(st.integers(0, max_deg),
                     st.integers(0, max_deg if lam else 0))
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=4).map(
        lambda d: Poly({(0, i, j, 0, 0, 0): c for (i, j), c in d.items()}))


def _phi_value(num: list) -> Poly:
    return sum((n * phi ** k for k, n in enumerate(num)), Poly())


@given(st.lists(st.one_of(st.just(Poly()), _bivariate(3, True)),
                max_size=7))
@settings(max_examples=60, deadline=None)
def test_reduce_top_matches_the_phi4_rule_term_by_term(num):
    # reference: lambda times the value, with each term c phi^k, k >= 4,
    # replaced by (c / lambda) phi^(k-4) (phi - lambda (1 + phi)^4 +
    # lambda phi^4), i.e. lambda phi^4 = phi - lambda (1 + 4 phi + 6 phi^2
    # + 4 phi^3), one term at a time until the phi-degree is <= 3
    rest = phi - lam * (4 * phi ** 3 + 6 * phi ** 2 + 4 * phi + 1)
    ref = lam * _phi_value(num)
    while ref.degree("f") >= 4:
        m, c = next((m, c) for m, c in ref.terms.items() if m[3] >= 4)
        head = Poly({m: c})
        ref = ref - head + poly_div_exact(head, lam * phi ** 4) * rest
    low, v = _reduce_top(num)
    assert len(low) <= 4 and v in (0, 1)
    assert _phi_value(low) * lam ** (1 - v) == ref


def test_reduce_top_refuses_phi_degree_above_6():
    with pytest.raises(ValueError, match="phi-degree 7 above 6"):
        _reduce_top([Poly.one()] * 8)


# -- stripping known primes --------------------------------------------------


def _strip_one_power_at_a_time(num: list, caps: dict) -> tuple:
    """Reference for `_strip_primes`: divide by each prime while every
    entry allows it, with no test at a point."""
    ks = {}
    for p, cap in caps.items():
        k = 0
        while k < cap:
            try:
                num = [poly_div_exact(n, p) if n else n for n in num]
            except ArithmeticError:
                break
            k += 1
        ks[p] = k
    return num, ks


# at the point (s, l) = (3, 5): l is 5, 256 l - 27 is 1253, and s + 2, which
# no prime divides, is 5 as well; s - 2 is 1 and l - 5 is 0, two primes the
# point values cannot bound
_STRIP_PRIMES = (lam, holonomic.SINGULAR, (1 + lam * s) ** 4 - s, s - 2,
                 lam - 5)


@given(st.lists(st.tuples(st.one_of(st.just(Poly()), _bivariate(2, True),
                                    st.just(s + 2)),
                          st.lists(st.integers(0, 3), min_size=5,
                                   max_size=5)),
                min_size=1, max_size=3),
       st.lists(st.sampled_from([1, 2, inf]), min_size=5, max_size=5),
       st.permutations(range(5)))
@settings(max_examples=60, deadline=None)
def test_strip_primes_matches_one_power_at_a_time(entries, caps, order):
    num = [c * holonomic._power_product(dict(zip(_STRIP_PRIMES, e)), {})
           for c, e in entries]
    if all(n.is_zero() for n in num):
        num[0] = s + 2
    caps = {_STRIP_PRIMES[i]: caps[i] for i in order}
    assert _strip_primes(num, caps) == _strip_one_power_at_a_time(num, caps)


@pytest.mark.parametrize("num, p, k", [
    # at the point (s, l) = (3, 5), l - 5 is 0, s - 2 is 1, and l is 5 but
    # an entry vanishes: the point values bound no power, the degrees bound
    # each by 3, and the last two step down from there
    ([(lam - 5) ** 3 * s, (lam - 5) ** 3 * (lam + 2)], lam - 5, 3),
    ([(s - 2) ** 3 * lam, (s - 2) ** 2 * (lam + s), Poly()], s - 2, 2),
    ([lam ** 2 * (lam - 5), lam ** 3 * s], lam, 2),
])
def test_strip_primes_without_a_point_bound(num, p, k):
    caps = {p: inf}
    got = _strip_primes(num, caps)
    assert got == _strip_one_power_at_a_time(num, caps)
    assert got[1] == {p: k}


def test_strip_primes_steps_down_after_a_false_positive(monkeypatch):
    # l^2 (s + 2) is 125 at the point: the values allow l^3, the division
    # by l^3 fails, and the one by l^2 is the last
    divisors = []

    def spy(A, B):
        divisors.append(B)
        return poly_div_exact(A, B)

    monkeypatch.setattr(holonomic, "poly_div_exact", spy)
    assert _strip_primes([lam ** 2 * (s + 2)], {lam: inf}) == (
        [s + 2], {lam: 2})
    assert divisors == [lam ** 3, lam ** 2]


# -- the primes of the kernel minors -----------------------------------------


def test_kernel_primes_are_the_factors_of_the_norm_like_sympy():
    # up to a power of l, the norm of W = F^2 modulo P is Res_phi(P, F^2)
    # = G E^2, with E = -P(l, l s)/l; compared inside sympy, independently
    # of src/
    sympy = pytest.importorskip("sympy")
    l, s_, f = sympy.symbols("l s f")
    P = f - l * (1 + f) ** 4
    B = 1 + l * s_ + s_ + (1 + l * s_) * f * (1 - f - f ** 2)
    F2 = sympy.expand(B ** 2 - 4 * s_ * (1 + l * s_) ** 2)
    lam_, singular, G, E = (_to_sympy(sympy, p) for p in KERNEL_PRIMES)
    assert (lam_, singular) == (l, 256 * l - 27)
    assert sympy.expand(sympy.resultant(P, F2, f) - G * E ** 2) == 0
    assert sympy.expand(P.subs(f, l * s_) + l * E) == 0


def test_tower_denominator_primes_are_squarefree_and_coprime():
    # the tower's denominators hold lambda and 256 l - 27 only; the primes
    # stripped from the kernel minors add the two factors of W's norm
    tower_keys = {p for t in q_tower(5) for p in t.den}
    assert tower_keys == {holonomic.LAM, holonomic.SINGULAR}
    keys = set(KERNEL_PRIMES)
    assert tower_keys < keys and len(keys) == 4
    assert (1 + lam * s) ** 4 - s in keys
    for p in keys:
        assert _sympy_gcd_is_const(p, partial_derivative(p, "l"))
    for p, q in combinations(keys, 2):
        assert _sympy_gcd_is_const(p, q)


def test_t_tower_is_w_powers_times_the_q_tower():
    # T_i = W^i Q_i, i.e. W^i d^iF/dlambda^i = T_i F, for i <= 6 as
    # truncated series, and no inverse enters the T-tower: its denominators
    # hold only lambda and 256 lambda - 27
    for t in q_tower(6):
        assert set(t.den) <= {holonomic.LAM, holonomic.SINGULAR}
    assert tower_oracle(6, 10, 8).ok


def test_tower_columns_are_w_top_times_q_over_factorial():
    # column i is W^(top-i) T_i / i! = W^top Q_i / i!, the W-power built
    # here by repeated products
    W = w_quot()[0]
    tower = q_tower(5)
    cols = {4: tower_columns(4)}
    cols[5] = tower_columns(5, cols[4])
    for top in (4, 5):
        for i, col in zip(range(top - 4, top + 1), cols[top]):
            want = tower[i]
            for _ in range(top - i):
                want = _pq_mul(want, W)
            assert _pq_eq(col, _pq_scale(want, Rat(1, factorial(i)))), \
                (top, i)


def test_kernel_vector_of_R_has_no_hidden_common_factor():
    # the prime stripping leaves components whose gcd is constant, so no
    # common factor such as ((1 + l s)^4 - s)^7 reaches the normalization
    assert _sympy_gcd_is_const(
        *_kernel_vector(list(tower_columns(4)), KERNEL_PRIMES))


def test_q_tower_oracle():
    # W^i d^i F / d lambda^i = T_i F as truncated series, i <= 3 fast
    assert tower_oracle(3, 14, 10).ok


def test_tower_oracle_at_the_tower_cap():
    # the deepest tower the CLI accepts still meets the series oracle
    assert tower_oracle(holonomic.TOWER_MAX, 8, 6).ok


def _perturbed_tower(i: int) -> tuple:
    tower = list(q_tower(5))
    tower[i] = _pq_sum([(ONE, tower[i]), (lam, _PQ_ONE)])
    return tuple(tower)


@pytest.mark.parametrize("i", [1, 3])
def test_tower_oracle_rejects_a_perturbed_t(monkeypatch, i):
    bad = _perturbed_tower(i)
    monkeypatch.setattr(holonomic, "q_tower", lambda k: bad[:k + 1])
    rep = tower_oracle(3, 8, 6)
    assert rep.status == "fail" and rep.witness == f"mismatch at i={i}"


def test_r_re_expansion_rejects_a_perturbed_t(monkeypatch, vectors):
    # R from the true tower, its re-expansion against columns from a tower
    # with T_2 changed
    R = vectors[0]
    bad = _perturbed_tower(2)
    monkeypatch.setattr(holonomic, "q_tower", lambda k: bad[:k + 1])
    rep = dependency_report("R", R, tower_columns(4))
    assert rep.status == "fail" and rep.witness == "re-expansion is nonzero"


# -- dependency vectors -----------------------------------------------------


def test_dependency_R(vectors):
    dv = vectors[0]
    assert dv.offset == 0 and len(dv.entries) == 5
    # the band R_{i,i-1} is a positive scalar times (s - 1)
    expected = {1: 15, 2: 96, 3: 324, 4: 486}
    table = dv.table()
    for i in range(1, 5):
        assert table[(i, i - 1)] == (s - 1).scale(Rat(expected[i]))
    # nothing below the band
    assert all(k >= i - 1 for i, k in table)
    assert dependency_report("R", dv, tower_columns(4)).ok


def test_dependency_Rhat(vectors):
    dv = vectors[1]
    assert dv.offset == 1 and len(dv.entries) == 5
    expected = {2: 126, 3: 612, 4: 1782, 5: 2430}
    table = dv.table()
    for i in range(2, 6):
        assert table[(i, i - 2)] == (3 * s + 1).scale(Rat(expected[i]))
    assert all(k >= i - 2 for i, k in table)
    # weighted degree bound 2(3 - i) with s:2, lambda:-2, on every monomial
    for i in range(1, 6):
        assert all(2 * m[1] - 2 * m[2] <= 2 * (3 - i)
                   for m in dv.entry(i).terms)
    assert dependency_report("Rhat", dv,
                             tower_columns(5, tower_columns(4))).ok


def test_dependency_table_rebuilds_the_entries(vectors):
    # the table holds exactly the nonzero R_ik = k! [lambda^k] R_i, in s
    for dv in vectors:
        table = dv.table()
        assert all(p and p.vars_present() <= {1} for p in table.values())
        for i in dv.indices:
            back = sum((p.scale(Rat(1, factorial(k))) * lam ** k
                        for (j, k), p in table.items() if j == i), Poly())
            assert back == dv.entry(i)


def test_dependency_vectors_match_pinned_fixtures(vectors):
    # `verify holonomic --fixtures` output, pinned when both vectors still
    # came from kernel minors: an independent check of Rhat's derivation
    for name, dv in zip(("dependency_R", "dependency_Rhat"), vectors):
        text = json.dumps([poly_to_str(p) for p in dv.entries], indent=1,
                          sort_keys=True)
        assert text == (FIXTURES / f"{name}.json").read_text(), name


def _det(M: list) -> Poly:
    """Determinant of a small Poly matrix by cofactor expansion along row
    0, kept here so that the reference below shares no code with src/."""
    if len(M) == 1:
        return M[0][0]
    out = Poly()
    for j, m in enumerate(M[0]):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = m * _det(minor)
        out = out + (-term if j % 2 else term)
    return out


def cramer_kernel(cols: list) -> list:
    """Reference: the fraction-free Cramer rule on the 4x5 phi-coefficient
    matrix by brute force.  Component i is the signed 4x4 minor of the
    numerator matrix omitting column i, times D_i / c_i for the column
    denominator D_i and scalar c_i."""
    N = [[col.num[r] if r < len(col.num) else Poly() for col in cols]
         for r in range(4)]
    vec = []
    for i, col in enumerate(cols):
        det = _det([[N[r][j] for j in range(5) if j != i] for r in range(4)])
        if i % 2:
            det = -det
        vec.append((det * col.den_poly()).scale(ONE / col.c))
    return vec


def _random_column(rng):
    num = [Poly({(0, rng.randrange(3), rng.randrange(3), 0, 0, 0):
                 Rat(rng.randrange(-9, 10) or 1)
                 for _ in range(rng.randrange(1, 4))}) for _ in range(4)]
    den = {p: e for p, e in ((holonomic.LAM, rng.randrange(3)),
                             (holonomic.SINGULAR, rng.randrange(2))) if e}
    return _pq_normalize(num, den, Rat(rng.randrange(1, 9),
                                       rng.randrange(1, 9)))


def _assert_kernel_vector_matches_cramer(cols: list, primes: dict) -> None:
    """The shared-minor route with the strip of phi - lambda s and of the
    primes finds the line that the brute-force route finds."""
    try:
        vec = _kernel_vector(cols, primes)
    except ArithmeticError:
        # every 4x4 minor vanishes: the matrix has rank < 4
        assert all(p.is_zero() for p in cramer_kernel(cols))
        return
    ref = cramer_kernel(cols)
    assert any(not p.is_zero() for p in vec)
    assert any(not p.is_zero() for p in ref)
    for i in range(5):
        for j in range(i):
            assert vec[i] * ref[j] == vec[j] * ref[i]
    # and a kernel vector of the value matrix, whose column j is
    # c_j N_j / D_j: over the common denominator L, sum x_j c_j N_j L / D_j
    L = Poly.one()
    for p in {p for col in cols for p in col.den}:
        L = L * p ** max(col.den.get(p, 0) for col in cols)
    for r in range(4):
        acc = Poly()
        for x, col in zip(vec, cols):
            if r < len(col.num):
                acc = acc + (x * col.num[r] * poly_div_exact(
                    L, col.den_poly())).scale(col.c)
        assert acc.is_zero()


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_kernel_vector_matches_cramer(seed, unit):
    # with or without a unit column
    rng = random.Random(seed)
    cols = [_random_column(rng) for _ in range(5)]
    if unit:
        cols[0] = _PQ_ONE
    _assert_kernel_vector_matches_cramer(
        cols, {s - 1: inf} if rng.randrange(2) else {})


PI = phi - lam * s


@given(st.integers(0, 10 ** 6), st.integers(0, 2), st.booleans())
@settings(max_examples=25, deadline=None)
def test_kernel_vector_matches_cramer_on_columns_times_pi(seed, j, unit):
    # every column times pi^j modulo P, pi = phi - lambda s: the strip takes
    # off at least those j factors, and the line is still Cramer's
    rng = random.Random(seed)
    cols = [_random_column(rng) for _ in range(5)]
    if unit:
        cols[0] = _PQ_ONE
    pj = pq_from_poly(PI ** j)
    cols = [_pq_mul(col, pj) for col in cols]
    assert _strip_pi([col.num for col in cols])[1] >= j
    _assert_kernel_vector_matches_cramer(
        cols, {s - 1: inf} if rng.randrange(2) else {})


def test_a_pi_step_is_lambda_over_pi_modulo_p():
    # pi c' = lambda c + (c(sigma) / E) P as polynomials, for each column of
    # top 4 at each of its steps, with c(sigma) substituted here; the step
    # past the last one is refused
    E, P = holonomic.E_NORM, holonomic.P_DEFINING
    for col in tower_columns(4):
        num = col.num
        while True:
            c = _phi_value(num)
            at_sigma = sum((n * (lam * s) ** i for i, n in enumerate(num)),
                           Poly())
            try:
                new = _pi_step(num)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    poly_div_exact(at_sigma, E)
                break
            assert len(new) == 4
            assert PI * _phi_value(new) == lam * c + poly_div_exact(
                at_sigma, E) * P
            num = new


def test_strip_pi_takes_e7_off_the_top4_minors():
    # each column of top 4 is F^7 F^(i)/i! on each branch of P, and F
    # vanishes simply over E: column 0, F^8, allows 8 steps alone and the
    # others 7, so the five run in lockstep to k = 7, and each minor is the
    # unstripped one times the norm lambda^28 / E^7 of (lambda / pi)^7
    nums = [col.num for col in tower_columns(4)]
    stripped, k = _strip_pi(nums)
    assert k == 7
    assert [_strip_pi([num])[1] for num in nums] == [8, 7, 7, 7, 7]

    def minors(cols):
        return holonomic._minors(
            [[c[r] if r < len(c) else Poly() for c in cols] for r in range(4)])

    old, new = minors(nums), minors(stripped)
    E7 = holonomic.E_NORM ** 7
    for key, m in old.items():
        assert new[key] * E7 == m * lam ** 28
        assert len(new[key].terms) < len(m.terms) // 2


def test_strip_pi_skips_zero_columns_and_ends():
    # a zero column stays zero and does not bound k; with nothing but zero
    # columns the strip ends at once
    base = [pq_from_poly(p) for p in (
        Poly.one(), phi + s, phi ** 2 - lam, phi ** 3 + 2 * lam * s)]
    p2 = pq_from_poly(PI ** 2)
    cols = [_pq_mul(col, p2).num for col in base]
    alone, k = _strip_pi(cols)
    assert k >= 2
    stripped, k0 = _strip_pi(cols[:2] + [[]] + cols[2:])
    assert k0 == k and stripped[2] == []
    assert stripped[:2] + stripped[3:] == alone
    assert _strip_pi([[], [Poly(), Poly()]]) == ([[], [Poly(), Poly()]], 0)


def test_kernel_vector_rejects_rank_deficiency():
    a = pq_from_poly(phi + s * lam)
    b = pq_from_poly(phi ** 2 - lam + 1)
    c = pq_from_poly(phi ** 3 + 2 * phi + s)
    d = pq_from_poly(3 * phi ** 3 - phi ** 2 + 7)
    e = PhiQuot([lam, s], {holonomic.LAM: 1}, Rat(2, 3))
    assert len(_kernel_vector([_PQ_ONE, a, b, c, d], {})) == 5
    assert len(_kernel_vector([e, a, b, c, d], {})) == 5
    # rows 2 and 3 equal: rank 3, all five 4x4 minors vanish
    low = [pq_from_poly(p) for p in (
        Poly.one(), phi + s * lam, phi ** 3 + phi ** 2,
        3 * phi ** 3 + 3 * phi ** 2 + 2 * phi + s,
        lam * phi ** 3 + lam * phi ** 2 + 7)]
    with pytest.raises(ArithmeticError, match="kernel dimension exceeds 1"):
        _kernel_vector(low, {})
    # phi-degree <= 2 everywhere leaves row 3 zero
    with pytest.raises(ArithmeticError, match="kernel dimension exceeds 1"):
        _kernel_vector([e, a, b, a, b], {})


def test_dependency_precondition_failure_is_a_report(vectors):
    # Rhat is refused with the reason, and the report on the refusal fails
    # with it
    R = vectors[0]
    for entries, witness in (
            ([Poly()] + R.entries[1:],
             "R_0 = 0: F cannot be eliminated from R"),
            (R.entries[:4] + [Poly()],
             "R_4 = 0: Q_0..Q_3 are dependent")):
        Rhat = _certified(find_Rhat, DependencyVector("R", 0, entries))
        assert isinstance(Rhat, ArithmeticError)
        rep = dependency_report("Rhat", Rhat, None)
        assert rep.status == "fail"
        assert rep.witness == witness


def test_dependency_rhat_fails_when_find_R_finds_no_line():
    # columns of rank 3 make every 4x4 minor vanish, so find_R raises and
    # Rhat, derived from R, is a fail report with that reason
    low = tuple(pq_from_poly(p) for p in (
        Poly.one(), phi + s * lam, phi ** 3 + phi ** 2,
        3 * phi ** 3 + 3 * phi ** 2 + 2 * phi + s,
        lam * phi ** 3 + lam * phi ** 2 + 7))
    R = _certified(find_R, low)
    rep = dependency_report("Rhat", _certified(find_Rhat, R), low)
    assert rep.status == "fail" and rep.n_cases == 0
    assert rep.witness == "all 4x4 minors vanish: kernel dimension exceeds 1"


def test_b_recursion_fails_on_an_entry_below_the_band(vectors):
    # R_{3,0} below the band of R meets b_{l+3} at order l, past the b_{l+1}
    # that the order determines: the recursion reports it rather than
    # dropping it; Rhat is that of the true R
    R, Rhat = vectors
    entries = list(R.entries)
    entries[3] = entries[3] + 1
    bad = DependencyVector("R", 0, entries)
    assert (3, 0) in bad.table() and (3, 0) not in R.table()
    _, rep = b_recursion(4, bad, Rhat)
    assert rep.status == "fail"
    assert rep.witness == ("(s - 1) route: coefficient (3,0) lies below "
                           "the band")


@pytest.mark.parametrize("factor", [lam + 2, s - 5, s * lam + 1])
def test_dependency_r_fails_on_a_planted_common_factor(monkeypatch, factor):
    # the kernel vector times a common factor in lambda only, in s only or
    # in both is not certified coprime, and the report fails with the
    # reason rather than passing a vector that is not normalized
    kernel = holonomic._kernel_vector

    def planted(cols, primes):
        return [factor * p for p in kernel(cols, primes)]

    monkeypatch.setattr(holonomic, "_kernel_vector", planted)
    cols = tower_columns(4)
    rep = dependency_report("R", _certified(find_R, cols), cols)
    assert rep.status == "fail" and rep.n_cases == 0
    assert rep.witness.startswith("the entries share a factor in ")


def test_find_Rhat_fails_when_H_does_not_divide(monkeypatch, vectors):
    # H, R_4 without its kernel primes and its monomial content, divides
    # R_4' + 4 R_3 at this tree; a division refused there leaves no other
    # route, so the Rhat report fails with the reason
    R = vectors[0].entries
    d4 = partial_derivative(R[4], "l") + R[3].scale(4)
    div = holonomic.poly_div_exact

    def refusing(p, q):
        if p == d4:
            raise ArithmeticError("refused")
        return div(p, q)

    monkeypatch.setattr(holonomic, "poly_div_exact", refusing)
    rep = dependency_report("Rhat", _certified(find_Rhat, vectors[0]), None)
    assert rep.status == "fail" and rep.n_cases == 0
    assert rep.witness == ("H, R_4 without its kernel primes, does not "
                           "divide R_4' + 4 R_3 or one of c_1..c_3")


def test_dependency_report_unknown_kind():
    # an unknown kind is a fail report, decided before the vector or its
    # columns are read
    for kind in ("r", "Rhat2", ""):
        rep = dependency_report(kind, None, None)
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


def test_q_tower_does_not_depend_on_build_order():
    # the primes of a denominator are its keys, so which of phi' and W is
    # built first leaves no trace in the tower
    built = []
    for first in (w_quot, p0_quot):
        for fn in (p0_quot, w_quot, q_tower):
            fn.cache_clear()
        first()
        built.append([(q.num, list(q.den.items()), q.c) for q in q_tower(2)])
    assert built[0] == built[1]


def test_coprimality():
    assert coprimality_report().ok


def test_coprimality_reads_the_band_factors(monkeypatch):
    # a band factor of Rhat that shares the root s = 1 with that of R fails
    # the report, with the gcd as the witness
    monkeypatch.setitem(holonomic.BAND_FACTOR, "Rhat", 3 * s - 3)
    rep = coprimality_report()
    assert rep.status == "fail" and rep.n_cases == 1
    assert rep.witness == "gcd = s - 1"


# -- the b sequence ---------------------------------------------------------


def test_b_direct_low_orders():
    bs = b_direct(8, 4)
    assert bs.bl[0] == Poly.one()
    assert bs.bl[1] == 3 * s + 1
    assert bs.bl[2] == 4 * s ** 2 + 10 * s + 6
    assert bs.bl[3] == 36 * s ** 2 + 114 * s + 78
    assert bs.degree_report().ok


def test_low_b_by_sympy():
    # an independent expansion of b = s + (1 + l s) sqrt((1 + r)^2 - 4 s),
    # r = s/(1 + l s) + tau, with tau = l + 3 l^2 + 13 l^3 + ... from the
    # published start of Tutte's sequence; b_l is d^l b/dl^l at l = 0.  The
    # root is the branch 1 - s at l = 0, written (1 - s) sqrt(1 + x) with
    # x = ((1 + r)^2 - (1 + s)^2)/(1 - s)^2 = O(l)
    sympy = pytest.importorskip("sympy")
    S, L = sympy.symbols("s l")
    r = S / (1 + L * S) + L + 3 * L ** 2 + 13 * L ** 3
    x = ((1 + r) ** 2 - (1 + S) ** 2) / (1 - S) ** 2
    b = S + (1 + L * S) * (1 - S) * sympy.sqrt(1 + x)
    bl = b_direct(6, 3).bl
    for l in range(4):
        want = sympy.cancel(sympy.diff(b, L, l).subs(L, 0))
        mine = sympy.sympify(poly_to_str(bl[l]).replace("^", "**"))
        assert sympy.expand(mine - want) == 0, l
        assert sympy.Poly(want, S).degree() <= l


def test_b_degree_fails_on_a_term_above_the_bound():
    # b_5 + s^6 breaks deg_s b_5 <= 5 after b_0..b_4 meet their bounds
    bl = list(b_direct(8, 6).bl)
    bl[5] = bl[5] + s ** 6
    rep = BSeq("direct", 6, bl).degree_report()
    assert rep.status == "fail" and rep.n_cases == 5
    assert rep.witness == "deg b_5 = 6 > 5"


def test_b_equality_fails_where_the_sources_disagree():
    # b_3 + s^3 keeps the degree bound, so only the comparison of the two
    # sources sees it, after b_0..b_2 agree
    direct = b_direct(8, 6)
    bl = list(direct.bl)
    bl[3] = bl[3] + s ** 3
    rep = b_equality_report(direct, BSeq("recursion", 6, bl))
    assert rep.status == "fail" and rep.n_cases == 3
    assert rep.params == {"sources": "direct/recursion", "orders": 6}
    assert rep.witness == "sources disagree at b_3"


def test_b_recursion_matches_direct(vectors):
    rec, rep = b_recursion(6, *vectors)
    assert rep.ok, rep.line()
    direct = b_direct(9, 6)
    eq = b_equality_report(direct, rec)
    assert eq.ok, eq.line()


def test_b_degree_bound(vectors):
    rec, rep = b_recursion(8, *vectors)
    assert rep.ok
    for l, p in enumerate(rec.bl):
        assert p.degree("s") <= l


def test_caps_that_leave_nothing_to_compare_are_inconclusive():
    for i_max in (0, -1, holonomic.TOWER_MAX + 1):
        rep = tower_oracle(i_max, 8, 6)
        assert rep.status == "inconclusive" and rep.n_cases == 0
        assert rep.witness == \
            f"i_max {i_max} is outside 1..{holonomic.TOWER_MAX}"
    for L in (0, -1):
        # no vector is read
        rec, rep = b_recursion(L, None, None)
        assert rep.status == "inconclusive" and rep.n_cases == 0
        assert rep.witness == (f"orders {L} leave no b_l to derive; "
                               "need orders >= 1")
        assert rec.bl == []
        assert rec.degree_report().status == "inconclusive"
        assert b_equality_report(b_direct(4, 0), rec).status == "inconclusive"
    with pytest.raises(ValueError, match="lambda cap -1 is negative"):
        b_direct(4, -1)


def test_pq_normalize_tests_every_entry_before_dividing(monkeypatch):
    # lambda divides the first entry, but the second is 4 at the point
    # (s, l) = (3, 5), which 5 does not divide: no entry is divided
    divided = []

    def spy(A, B):
        divided.append(A)
        return poly_div_exact(A, B)

    monkeypatch.setattr(holonomic, "poly_div_exact", spy)
    lam = holonomic.LAM
    pq = _pq_normalize([lam * s, s + 1], {lam: 1}, ONE)
    assert divided == []
    assert pq.num == [lam * s, s + 1] and pq.den == {lam: 1}
    # lambda^2 divides both entries and lambda^3 neither: the point values
    # 75 and 150 hold 5^2 and no 5^3, so each entry is divided once, by
    # lambda^2
    pq = _pq_normalize([lam ** 2 * s, lam ** 3 + lam ** 2], {lam: 3}, ONE)
    assert divided == [lam ** 2 * s, lam ** 3 + lam ** 2]
    assert pq.num == [s, lam + 1] and pq.den == {lam: 1}
    # a prime that vanishes at the point proves nothing there: the
    # l-degrees bound its power by 1, and each entry is divided once
    root = Poly.var("l") - 5
    divided.clear()
    pq = _pq_normalize([root * s, root * (s + 2)], {root: 2}, ONE)
    assert divided == [root * s, root * (s + 2)]
    assert pq.num == [s, s + 2] and pq.den == {root: 1}
