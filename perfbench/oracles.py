"""Independent oracles for the benchmark's correctness checks.

Everything here is built from `fractions.Fraction` and `math.comb` alone;
tutteval supplies only the values under test (the dependency vectors, the
b sequence, the f-table), never an ingredient of the oracle.

* `f_expansion` expands F = sqrt(F^2) in (s, lambda), with phi taken from the
  Lagrange closed form [lambda^n] phi = C(4n, n-1)/n.  `annihilation_residue`
  then applies a dependency vector as sum_i V_i d^iF/dlambda^i / i!.
* `log_column` is the lambda = 0 column of the relation series: the
  coefficients of log(1 + t + s), regrouped by weighted degree a + 2b.
* `template_residue` integrates degree-matched multiples of f_{n+1,0} and
  f_{n+2,0} against the template values C(2n-2b, n-b).

A residue function returns None when the identity holds and a description
of the first nonzero coefficient otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm


def phi_lagrange(L: int) -> list:
    """[lambda^n] phi for n <= L, phi = lambda (1+phi)^4."""
    return [Fraction(0)] + [Fraction(comb(4 * n, n - 1), n)
                            for n in range(1, L + 1)]


def _mul(A: list, B: list, S: int, L: int) -> list:
    """Product of two (S+1) x (L+1) coefficient grids, truncated."""
    out = [[Fraction(0)] * (L + 1) for _ in range(S + 1)]
    for b1, row1 in enumerate(A):
        for c1, x in enumerate(row1):
            if not x:
                continue
            for b2 in range(S + 1 - b1):
                row2, target = B[b2], out[b1 + b2]
                for c2 in range(L + 1 - c1):
                    if row2[c2]:
                        target[c1 + c2] += x * row2[c2]
    return out


def _grid(terms: dict, S: int, L: int) -> list:
    out = [[Fraction(0)] * (L + 1) for _ in range(S + 1)]
    for (b, c), v in terms.items():
        if b <= S and c <= L:
            out[b][c] += v
    return out


def f_expansion(S: int, L: int) -> list:
    """F as an (S+1) x (L+1) grid, F[b][c] = [s^b lambda^c] F, with
    F^2 = B^2 - 4 s (1 + lambda s)^2, B = (1 + lambda s)(1 + tau) + s,
    tau = phi (1 - phi - phi^2), and F(0, 0) = 1."""
    phi = phi_lagrange(L)
    phi_g = _grid({(0, c): v for c, v in enumerate(phi)}, S, L)
    phi2 = _mul(phi_g, phi_g, S, L)
    phi3 = _mul(phi2, phi_g, S, L)
    one_tau = _grid({(0, 0): 1}, S, L)
    for c in range(L + 1):
        one_tau[0][c] += phi_g[0][c] - phi2[0][c] - phi3[0][c]
    one_ls = _grid({(0, 0): 1, (1, 1): 1}, S, L)
    B = _mul(one_ls, one_tau, S, L)
    if S >= 1:
        B[1][0] += 1
    G = _mul(B, B, S, L)
    ls2 = _mul(one_ls, one_ls, S, L)
    for b in range(S):
        for c in range(L + 1):
            G[b + 1][c] -= 4 * ls2[b][c]
    if G[0][0] != 1:
        raise ArithmeticError("F^2 must have constant term 1")
    # F^2 = G coefficient by coefficient, in increasing (b, c)
    F = [[Fraction(0)] * (L + 1) for _ in range(S + 1)]
    F[0][0] = Fraction(1)
    for b in range(S + 1):
        for c in range(L + 1):
            if b == 0 and c == 0:
                continue
            acc = G[b][c]
            for i in range(b + 1):
                Fi, Fo = F[i], F[b - i]
                for j in range(c + 1):
                    if (i, j) != (0, 0) and (i, j) != (b, c):
                        acc -= Fi[j] * Fo[c - j]
            F[b][c] = acc / 2
    return F


def annihilation_residue(entries: dict, F: list):
    """Apply sum_i V_i d^iF/dlambda^i / i! to the truncated F.

    `entries` maps i to {(s-exponent, lambda-exponent): coefficient}.  The
    result is exact for lambda-orders up to L - max(i), where it must
    vanish.  The arithmetic runs on integers: F is put over a common
    denominator and the 1/i! over (max i)!."""
    S, L = len(F) - 1, len(F[0]) - 1
    top = max(entries)
    Lc = L - top
    den = lcm(*(v.denominator for row in F for v in row))
    Fint = [[int(v * den) for v in row] for row in F]
    scale = factorial(top)
    acc = [[0] * (Lc + 1) for _ in range(S + 1)]
    for i, terms in entries.items():
        w_i = scale // factorial(i)
        # d^i/dlambda^i: lambda^(c+i) -> (c+i)!/c! lambda^c
        D = [[row[c + i] * (factorial(c + i) // factorial(c))
              for c in range(Lc + 1)] for row in Fint]
        for (b0, c0), coef in terms.items():
            if b0 > S or c0 > Lc:
                continue
            q = Fraction(coef) * w_i
            if q.denominator != 1:
                raise ValueError("dependency entries must be integral")
            w = q.numerator
            for b in range(S + 1 - b0):
                row, target = D[b], acc[b0 + b]
                for c in range(Lc + 1 - c0):
                    target[c0 + c] += w * row[c]
    for b, row in enumerate(acc):
        for c, v in enumerate(row):
            if v:
                return f"s^{b} lambda^{c} coefficient is nonzero"
    return None


def b_from_f(F: list, l: int) -> list:
    """The s-coefficients of b_l = l! [lambda^l] (s + F), up to the s cap."""
    out = [F[b][l] * factorial(l) for b in range(len(F))]
    if l == 0 and len(out) > 1:
        out[1] += 1
    return out


def log_column(K: int) -> dict:
    """{k: {(a, b): coefficient}} for k <= K: the t^a s^b coefficients of
    log(1 + t + s) with a + 2b = k, which are
    (-1)^(a+b+1) C(a+b, a) / (a+b)."""
    col = {}
    for k in range(1, K + 1):
        col[k] = {(k - 2 * b, b): Fraction((-1) ** (k - b + 1)
                                           * comb(k - b, b), k - b)
                  for b in range(k // 2 + 1)}
    return col


def template_value(a: int, b: int, n: int) -> int:
    """Integral of t^a s^b over dimension n."""
    return comb(2 * n - 2 * b, n - b) if a + 2 * b == 2 * n else 0


def template_residue(col: dict, n: int):
    """Integrals of t^m s^l f_{k,0} over dimension n, k = n+1, n+2, for
    every degree-matched (m, l); returns (None, cases) when all vanish."""
    cases = 0
    for k in (n + 1, n + 2):
        rem = 2 * n - k
        for l in range(rem // 2 + 1):
            m = rem - 2 * l
            total = sum(v * template_value(a + m, b + l, n)
                        for (a, b), v in col[k].items())
            if total:
                return (f"integral of t^{m} s^{l} f_{{{k},0}} over "
                        f"dimension {n} is {total}"), cases
            cases += 1
    return None, cases
