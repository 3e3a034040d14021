"""Top-level conjecture verification: template vanishing of the candidate
relations, the Hilbert-series check of the flat quotient algebra, and the
curvature-substitution isomorphism check.

The candidate relations come from the generating series
log(1 + t + s/(1+lambda s) + tau(lambda)); regrouping its monomials
t^a s^b lambda^c by (k, i) = (a+2b-2c, c) yields components f_{k,i}(t,s),
homogeneous of weighted degree k+2i (t:1, s:2).  The conjecture predicts
that f_{n+1} and f_{n+2} die under every monomial template integral over
dimension n, and that at lambda = 0 the two relations form a regular
sequence with the product Hilbert series.  The graded ranks behind that
check come from `exactnum.rank`, fraction-free elimination on integers.
"""

from __future__ import annotations

import time
from functools import partial
from math import ceil, comb

from .exactnum import ONE, ZERO, rank
from .polyring import Poly, _int_terms, _ratio
from .report import Record, Report, failed, inconclusive, passed
from .series import Series2
from .template import integrate, relation_series

# -- the f-table -----------------------------------------------------------


class FTable(Record):
    """Components f_{k,i}(t,s) of the relation series, complete for
    k <= K_max and i <= I_max."""

    def __init__(self, K_max: int, I_max: int, entries: dict | None = None):
        self.K_max = K_max
        self.I_max = I_max
        # (k, i) -> Poly in (t, s)
        self.entries = {} if entries is None else entries

    def get(self, k: int, i: int) -> Poly:
        return self.entries.get((k, i), Poly())

    def degree_report(self) -> Report:
        """Every f_{k,i} is weighted-homogeneous of degree exactly k + 2i."""
        t0 = time.perf_counter()
        params = {"k_max": self.K_max, "i_max": self.I_max}
        if not self.entries:
            return inconclusive("f_table_degrees", params,
                                "the table has no entry to check", 0, t0)
        cases = 0
        for (k, i), p in sorted(self.entries.items()):
            for m in p.terms:
                if m[0] + 2 * m[1] != k + 2 * i:
                    return failed("f_table_degrees", params,
                                  f"f_{{{k},{i}}} contains t^{m[0]} s^{m[1]}",
                                  cases, t0)
            cases += 1
        return passed("f_table_degrees", params, cases, t0)


def f_table(K_max: int, I_max: int) -> FTable:
    """Regroup the t^a s^b lambda^c coefficients of the relation series
    log(1 + t + s/(1+lambda s) + tau(lambda)) by (k, i) =
    (a + 2b - 2c, c).  `template.relation_series` gives the series as
    (E, g): the t^a coefficient, a >= 1, is v/a for v in E, an `int` when
    a divides v, and the t^0 one is read from g.  Each entry is collected
    as one map and becomes one `Poly`."""
    if K_max < 1 or I_max < 0:
        raise ValueError("caps must be positive")
    E, g = relation_series(K_max + 2 * I_max, I_max)
    grouped = {}
    for (a, b, c), v in E.coeffs.items():
        k = a + 2 * b - 2 * c
        if 1 <= k <= K_max:
            grouped.setdefault((k, c), {})[(a, b, 0, 0, 0, 0)] = _ratio(v, a)
    for (b, c), v in g.coeffs.items():
        k = 2 * b - 2 * c
        if 1 <= k <= K_max:
            grouped.setdefault((k, c), {})[(0, b, 0, 0, 0, 0)] = v
    return FTable(K_max, I_max,
                  {key: Poly(terms) for key, terms in grouped.items()})


# -- template vanishing ----------------------------------------------------


def verify_vanishing(n: int, I_max: int, tab: FTable,
                     ks: tuple | None = None) -> Report:
    """Integrate t^m s^l f_{k,i} over dimension n for every degree-matched
    (m, l, i): m + 2l + k + 2i = 2n.  All integrals must vanish exactly.
    They are summed on ints over the cleared coefficients of f_{k,i}; only
    a nonzero one is evaluated as a rational, by `integrate`, for the
    witness."""
    t0 = time.perf_counter()
    if ks is None:
        ks = (n + 1, n + 2)
    params = {"n": n, "i_max": I_max, "ks": list(ks)}
    if not ks or 2 * n < min(ks) or I_max < 0:
        # m + 2l + k + 2i = 2n has no solution with m, l, i >= 0
        return inconclusive("vanishing", params,
                            f"no template integral of degree 2n = {2 * n} "
                            f"meets k in {list(ks)} and i <= {I_max}", 0, t0)
    if max(ks) > tab.K_max or I_max > tab.I_max:
        raise ValueError("f-table caps too small for this check")
    central = [comb(2 * j, j) for j in range(n + 1)]
    cases = 0
    for k in ks:
        for i in range(I_max + 1):
            rem = 2 * n - k - 2 * i
            if rem < 0:
                continue
            fki = tab.get(k, i)
            # t^(a+m) s^(b+l) with m = rem - 2l has degree a + 2b + rem
            # whatever l is, so the same terms reach degree 2n for every l;
            # there a + m = 2(n - b - l) is even, and the term integrates to
            # C(2(n-b-l), n-b-l) times its coefficient
            terms = [(e[1], c) for e, c in _int_terms(fki.terms)[1].items()
                     if e[0] + 2 * e[1] + rem == 2 * n]
            for l in range(rem // 2 + 1):
                if sum(c * central[n - b - l] for b, c in terms):
                    m = rem - 2 * l
                    val = integrate(Poly({(m, l, 0, 0, 0, 0): ONE}) * fki, n)
                    return failed(
                        "vanishing", params,
                        f"integral of t^{m} s^{l} f_{{{k},{i}}} = {val}",
                        cases, t0)
                cases += 1
    return passed("vanishing", params, cases, t0)


def conjecture_reports(n_max: int, i_max: int, jobs: int,
                       tab: FTable) -> list:
    """One vanishing report per dimension 1..n_max, computed from a single
    shared f-table that reaches k = n_max + 2 and i_max.  `jobs` > 1 farms the
    dimensions out to worker processes in at most `jobs` chunks, so the
    table, bound into the task, is pickled at most `jobs` times; the
    reports come back in dimension order, so the output is independent of
    the level of parallelism."""
    task = partial(verify_vanishing, I_max=i_max, tab=tab)
    dims = range(1, n_max + 1)
    if jobs > 1:
        # imported here: the multiprocessing modules behind it add ~1.3 MB
        # to the memory of a run that stays in one process
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(task, dims,
                                 chunksize=max(1, ceil(n_max / jobs))))
    return list(map(task, dims))


def restriction_spot_check(n_max: int, i_max: int, tab: FTable) -> Report:
    """The same vanishing for k = n+3, n+4 (restriction closure), n <= n_max,
    read from `tab` when it reaches k = n_max + 4 and i_max, and otherwise
    from a table built here.  An entry f_{k,i} does not depend on the caps
    of the table that holds it, so either table gives the same report."""
    t0 = time.perf_counter()
    params = {"n_max": n_max, "i_max": i_max, "offsets": [3, 4]}
    if tab.K_max < n_max + 4 or tab.I_max < i_max:
        tab = f_table(n_max + 4, i_max)
    cases = 0
    for n in range(1, n_max + 1):
        rep = verify_vanishing(n, i_max, tab, ks=(n + 3, n + 4))
        if rep.status == "fail":
            rep.check = "vanishing_restriction"
            rep.params = params
            return rep
        cases += rep.n_cases
    if not cases:
        return inconclusive("vanishing_restriction", params,
                            f"no template integral for n <= {n_max}; "
                            "need n_max >= 3", 0, t0)
    return passed("vanishing_restriction", params, cases, t0)


# -- Hilbert-series check --------------------------------------------------


def hilbert_coeffs(n: int, k_max: int) -> list:
    """Coefficients of (1-q^{n+1})(1-q^{n+2})/((1-q)(1-q^2)) up to q^k_max."""
    base = [k // 2 + 1 for k in range(k_max + 1)]  # 1/((1-q)(1-q^2))
    out = []
    for k in range(k_max + 1):
        v = base[k]
        if k - (n + 1) >= 0:
            v -= base[k - (n + 1)]
        if k - (n + 2) >= 0:
            v -= base[k - (n + 2)]
        if k - (2 * n + 3) >= 0:
            v += base[k - (2 * n + 3)]
        out.append(v)
    return out


def hilbert_check(n: int) -> Report:
    """Graded dimensions of R[t,s]/(f_{n+1,0}, f_{n+2,0}) in degrees
    k <= k_max = 2n + 4 by exact rank (`rank`) of the degree-k multiples of
    the two relations, against the regular-sequence Hilbert series, plus
    palindromicity."""
    t0 = time.perf_counter()
    k_max = 2 * n + 4
    params = {"n": n, "k_max": k_max}
    tab = f_table(n + 2, 0)
    gens = [(n + 1, tab.get(n + 1, 0)), (n + 2, tab.get(n + 2, 0))]
    expected = hilbert_coeffs(n, k_max)
    dims = []
    cases = 0
    for k in range(k_max + 1):
        basis = [(a, (k - a) // 2) for a in range(k + 1) if (k - a) % 2 == 0]
        index = {m: j for j, m in enumerate(basis)}
        rows = []
        for d, g in gens:
            e = k - d
            if e < 0:
                continue
            for a in range(e + 1):
                if (e - a) % 2:
                    continue
                # the row of t^a s^b g: shift the exponents of g's terms
                b = (e - a) // 2
                row = [ZERO] * len(basis)
                for m, c in g.terms.items():
                    row[index[(m[0] + a, m[1] + b)]] = c
                rows.append(row)
        qdim = len(basis) - rank(rows)
        dims.append(qdim)
        if qdim != expected[k]:
            return failed("hilbert", params,
                          f"degree {k}: quotient dim {qdim}, "
                          f"series predicts {expected[k]}", cases, t0)
        cases += 1
    top = 2 * n
    for k in range(top + 1):
        if dims[k] != dims[top - k]:
            return failed("hilbert", params,
                          f"dims not palindromic: d_{k} != d_{top - k}",
                          cases, t0)
        cases += 1
    return passed("hilbert", params, cases, t0)


# -- isomorphism (curvature substitution) check ----------------------------


def iso_check(D: int, L: int) -> Report:
    """The scaling map (t -> t sqrt(1-lambda s), s -> s) composed with the
    normalized map (t -> t/sqrt(1-lambda s), s -> s/(1-lambda s)) equals the
    displayed substitution (t -> t, s -> s/(1-lambda s)) on generators, and
    the displayed substitution is inverted by s -> s/(1+lambda s)."""
    t0 = time.perf_counter()
    params = {"order": D, "lambda_cap": L}
    if D < 4 or L < 1:
        # the first lambda terms, t lambda s and lambda s^2, need both
        return inconclusive("iso", params,
                            f"order {D} and lambda cap {L} leave no lambda "
                            "term to compare; need order >= 4 and lambda "
                            "cap >= 1", 0, t0)
    cases = 0

    # the scaling map sends t to t sq and fixes s; the normalized map then
    # divides by sq again.  t enters only as a factor t * (series in s,
    # lambda), so the t image closes when sq * sq^-1 = 1 at the s cap
    # (D - 1) // 2 of the terms t s^b.  That holds for any invertible sq,
    # so sq is also checked to be the square root it stands for
    S = (D - 1) // 2
    one_ls = 1 - Series2.var("l", S, L) * Series2.var("s", S, L)
    sq = one_ls.sqrt()
    if sq * sq != one_ls:
        return failed("iso", params, "sq * sq differs from 1 - lambda s",
                      cases, t0)
    if sq * sq.inverse() != Series2.const(1, S, L):
        return failed("iso", params, "t image does not close", cases, t0)
    cases += 1

    # s is fixed by the scaling map and sent to s/(1 - lambda s) by the
    # normalized one
    s = Series2.var("s", D // 2, L)
    lam = Series2.var("l", D // 2, L)
    sC = (1 - lam * s).inverse().shift(1)
    # the displayed s image in closed form: sum_k lambda^k s^(k+1)
    displayed_s = Series2({(k + 1, k): 1 for k in range(L + 1)}, D // 2, L)
    if sC != displayed_s:
        return failed("iso", params, "s image does not match", cases, t0)
    cases += 1

    # inverse substitution: s -> s/(1+lambda s) undoes the displayed map
    w = (1 + lam * s).inverse().shift(1)
    back = w * (1 - lam * w).inverse()
    if back != s:
        return failed("iso", params, "Mobius pair is not the identity",
                      cases, t0)
    cases += 1
    return passed("iso", params, cases, t0)
