"""Top-level conjecture verification: template vanishing of the candidate
relations, the Hilbert-series check of the flat quotient algebra, and the
curvature-substitution isomorphism check.

The candidate relations come from the generating series
log(1 + t + s/(1+lambda s) + tau(lambda)); regrouping its monomials
t^a s^b lambda^c by (k, i) = (a+2b-2c, c) yields components f_{k,i}(t,s),
homogeneous of weighted degree k+2i (t:1, s:2).  The conjecture predicts
that f_{n+1} and f_{n+2} die under every monomial template integral over
dimension n, and that at lambda = 0 the two relations form a regular
sequence with the product Hilbert series.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .exactnum import ONE, ZERO
from .polyring import Poly
from .report import Report, failed, passed
from .series import Series3
from .template import integrate
from .tutte import tau_series

# -- the f-table -----------------------------------------------------------


@dataclass
class FTable:
    """Components f_{k,i}(t,s) of the relation series, complete for
    k <= K_max and i <= I_max."""

    K_max: int
    I_max: int
    entries: dict = field(default_factory=dict)  # (k, i) -> Poly in (t, s)

    def get(self, k: int, i: int) -> Poly:
        return self.entries.get((k, i), Poly())

    def degree_report(self) -> Report:
        """Every f_{k,i} is weighted-homogeneous of degree exactly k + 2i."""
        t0 = time.perf_counter()
        params = {"k_max": self.K_max, "i_max": self.I_max}
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
    """Expand log(1 + t + s/(1+lambda s) + tau(lambda)) and regroup."""
    if K_max < 1 or I_max < 0:
        raise ValueError("caps must be positive")
    D = K_max + 2 * I_max
    L = I_max
    t = Series3.var("t", D, L)
    s = Series3.var("s", D, L)
    lam = Series3.var("l", D, L)
    r = s * (1 + lam * s).inverse()
    tau = (Series3.from_series2(tau_series(L), D, L) if L
           else Series3.zero(D, L))
    f = (1 + t + r + tau).log()
    tab = FTable(K_max, I_max)
    for (a, b, c), v in f.coeffs.items():
        k = a + 2 * b - 2 * c
        if 1 <= k <= K_max and c <= I_max:
            mono = (a, b, 0, 0, 0, 0)
            p = tab.entries.get((k, c))
            if p is None:
                tab.entries[(k, c)] = Poly({mono: v})
            else:
                tab.entries[(k, c)] = p + Poly({mono: v})
    return tab


# -- template vanishing ----------------------------------------------------


def verify_vanishing(n: int, I_max: int, tab: FTable | None = None,
                     ks: tuple | None = None) -> Report:
    """Integrate t^m s^l f_{k,i} over dimension n for every degree-matched
    (m, l, i): m + 2l + k + 2i = 2n.  All integrals must vanish exactly."""
    t0 = time.perf_counter()
    if ks is None:
        ks = (n + 1, n + 2)
    params = {"n": n, "i_max": I_max, "ks": list(ks)}
    if tab is None:
        tab = f_table(max(ks), I_max)
    if max(ks) > tab.K_max or I_max > tab.I_max:
        raise ValueError("f-table caps too small for this check")
    cases = 0
    for k in ks:
        for i in range(I_max + 1):
            rem = 2 * n - k - 2 * i
            if rem < 0:
                continue
            fki = tab.get(k, i)
            for l in range(rem // 2 + 1):
                m = rem - 2 * l
                p = Poly({(m, l, 0, 0, 0, 0): ONE}) * fki
                val = integrate(p, n)
                if val != ZERO:
                    return failed(
                        "vanishing", params,
                        f"integral of t^{m} s^{l} f_{{{k},{i}}} = {val}",
                        cases, t0)
                cases += 1
    return passed("vanishing", params, cases, t0)


_WORKER_TABLE = None


def _vanishing_init(tab):
    global _WORKER_TABLE
    _WORKER_TABLE = tab


def _vanishing_task(args):
    n, i_max = args
    return verify_vanishing(n, i_max, _WORKER_TABLE)


def conjecture_reports(n_max: int, i_max: int, jobs: int = 1,
                       tab: FTable | None = None) -> list:
    """One vanishing report per dimension 1..n_max, computed from a single
    shared f-table (built here unless given); `jobs` > 1 farms dimensions
    out to worker processes and merges in dimension order, so the output is
    independent of the level of parallelism."""
    if tab is None:
        tab = f_table(n_max + 2, i_max)
    work = [(n, i_max) for n in range(1, n_max + 1)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_vanishing_init,
                                 initargs=(tab,)) as pool:
            return list(pool.map(_vanishing_task, work))
    return [verify_vanishing(n, i_max, tab) for n, _ in work]


def restriction_spot_check(n_max: int = 5, i_max: int = 4) -> Report:
    """The same vanishing for k = n+3, n+4 (restriction closure), n <= n_max."""
    t0 = time.perf_counter()
    params = {"n_max": n_max, "i_max": i_max, "offsets": [3, 4]}
    tab = f_table(n_max + 4, i_max)
    cases = 0
    for n in range(1, n_max + 1):
        rep = verify_vanishing(n, i_max, tab, ks=(n + 3, n + 4))
        if not rep.ok:
            rep.check = "vanishing_restriction"
            rep.params = params
            return rep
        cases += rep.n_cases
    return passed("vanishing_restriction", params, cases, t0)


# -- Hilbert-series check --------------------------------------------------


def _rank(rows: list) -> int:
    """Exact rank of a list of rational row vectors (Gaussian elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        prow = rows[0]
        inv = ONE / prow[col]
        for i in range(1, len(rows)):
            f = rows[i][col]
            if f:
                f = f * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rows = [r for r in rows[1:] if any(r)]
        rank += 1
        col += 1
    return rank


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


def hilbert_check(n: int, k_max: int | None = None) -> Report:
    """Graded dimensions of R[t,s]/(f_{n+1,0}, f_{n+2,0}) by exact rank,
    against the regular-sequence Hilbert series, plus palindromicity."""
    t0 = time.perf_counter()
    if k_max is None:
        k_max = 2 * n + 4
    params = {"n": n, "k_max": k_max}
    if k_max > 2 * n + 4:
        raise ValueError("k_max exceeds 2n + 4")
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
                shift = Poly({(a, (e - a) // 2, 0, 0, 0, 0): ONE}) * g
                row = [ZERO] * len(basis)
                for m, c in shift.terms.items():
                    row[index[(m[0], m[1])]] = c
                rows.append(row)
        qdim = len(basis) - (_rank(rows) if rows else 0)
        dims.append(qdim)
        if qdim != expected[k]:
            return failed("hilbert", params,
                          f"degree {k}: quotient dim {qdim}, "
                          f"series predicts {expected[k]}", cases, t0)
        cases += 1
    top = 2 * n
    for k in range(min(k_max, top) + 1):
        if top - k <= k_max and dims[k] != dims[top - k]:
            return failed("hilbert", params,
                          f"dims not palindromic: d_{k} != d_{top - k}",
                          cases, t0)
        cases += 1
    return passed("hilbert", params, cases, t0)


# -- isomorphism (curvature substitution) check ----------------------------


def iso_check(D: int = 10, L: int = 8) -> Report:
    """The scaling map (t -> t sqrt(1-lambda s), s -> s) composed with the
    normalized map (t -> t/sqrt(1-lambda s), s -> s/(1-lambda s)) equals the
    displayed substitution (t -> t, s -> s/(1-lambda s)) on generators, and
    the displayed substitution is inverted by s -> s/(1+lambda s)."""
    t0 = time.perf_counter()
    params = {"order": D, "lambda_cap": L}
    t = Series3.var("t", D, L)
    s = Series3.var("s", D, L)
    lam = Series3.var("l", D, L)
    cases = 0

    sq = (1 - lam * s).sqrt()
    tA, sA = t * sq, s
    # the second map's formulas evaluated at the first map's images
    tC = tA * ((1 - lam * sA).sqrt()).inverse()
    sC = sA * (1 - lam * sA).inverse()
    displayed_s = s * (1 - lam * s).inverse()
    if tC != t:
        return failed("iso", params, "t image does not close", cases, t0)
    cases += 1
    if sC != displayed_s:
        return failed("iso", params, "s image does not match", cases, t0)
    cases += 1

    # inverse substitution: s -> s/(1+lambda s) undoes the displayed map
    w = s * (1 + lam * s).inverse()
    back = w * (1 - lam * w).inverse()
    if back != s:
        return failed("iso", params, "Mobius pair is not the identity",
                      cases, t0)
    cases += 1
    return passed("iso", params, cases, t0)
