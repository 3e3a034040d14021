"""Truncated formal power series in (t, s, lambda), their two-variable
restriction, and the Laurent-with-log2 auxiliary series.

Grading: deg t = 1, deg s = 2, deg lambda = -2.  A Series3 stores
coefficients for monomials t^a s^b l^c with a + 2b <= D and c <= L; the
lambda order is capped separately because the weighted degree of lambda is
negative and a single total-degree cap would be ill-founded.  A Series2 is
the t-free case with caps b <= S, c <= L.  Coefficients are exact: an `int`
or a `Fraction`.  A Series2 product multiplies on ints over the operands'
common denominators and divides once, as a `Poly` product does.

All arithmetic is exact and eager; results carry the componentwise minimum
of the operand caps.  One integer recurrence in order of b + c (`_recur`)
gives the Series2 inverse, A_0 y_k = -sum_{i != 0} A_i y_(k-i), and square
root, 2 y_k = A_k - sum_{i != 0, k} y_i y_(k-i); a substitution
(s, lambda) -> (g s, g lambda) makes each division exact.  The log is
theta^-1(theta A * A^-1) with theta = s d/ds + lambda d/dlambda, plus log 2
when A_0 = 2.  Series3 has no inverse, sqrt or log: the three-variable log
the verifier needs is assembled from t-slices in `template.relation_series`.

LaurentX adjoins a formal symbol for log 2 with componentwise equality:
an element is q(x) + p(x)*log2 with finitely many negative exponents.  Its
log is the one-variable case of the Series2 log.
"""

from __future__ import annotations

from operator import mul

from .exactnum import ONE, ZERO
from ._kernels_py import mul_trunc2, mul_trunc3
from .polyring import Poly, _divide_terms, _int_terms, _ratio
from .report import Report, failed, passed
import time


# -- the recurrence core ---------------------------------------------------


def _grid(terms: dict, S: int, L: int, g: int = 1, e: int = 1) -> list:
    """An {(b, c): int} map as the (S+1) x (L+1) integer grid of
    v g^(b+c) / e; the caller makes every division by e exact."""
    out = [[0] * (L + 1) for _ in range(S + 1)]
    for (b, c), v in terms.items():
        out[b][c] = v * g ** (b + c) // e
    return out


def _recur(rhs: list, B, c0: int, S: int, L: int) -> list:
    """The one coefficient recurrence behind inverse, sqrt and log (cf.
    Brent and Kung, J. ACM 25, 1978): the (S+1) x (L+1) integer grid y with
    y_0 = 1 and, in order of total degree k = b + c, c0 y_k = rhs_k -
    sum_{i <= k} B_i y_(k-i), where the sum reads y_k itself as 0.  B is an
    integer grid of the same shape, or None for y itself, which makes
    y^2 = rhs when c0 = 2.  Every division by c0 must be exact."""
    y = [[0] * (L + 1) for _ in range(S + 1)]
    y[0][0] = 1
    if B is None:
        B = y
    for k in range(1, S + L + 1):
        for b in range(max(0, k - L), min(k, S) + 1):
            c = k - b
            acc = rhs[b][c]
            for i in range(b + 1):
                acc -= sum(map(mul, B[i][:c + 1], y[b - i][c::-1]))
            q, r = divmod(acc, c0)
            if r:
                raise ArithmeticError("series recurrence is not integral")
            y[b][c] = q
    return y


def _unscale(y: list, g: int, num: int = 1, den: int = 1) -> dict:
    """{(b, c): num y_bc / (den g^(b+c))} over the nonzero grid entries."""
    return {(b, c): _ratio(num * v, den * g ** (b + c))
            for b, row in enumerate(y) for c, v in enumerate(row) if v}


def log_from_inverse(A: "Series2", inv: "Series2") -> "Series2":
    """log(A / A_0) from A and its inverse.  With theta = s d/ds +
    lambda d/dlambda, theta log A = theta A * A^-1, and theta^-1 divides the
    s^b lambda^c coefficient by b + c; the product runs on ints."""
    S, L = A._caps(inv)
    da, a = _int_terms({(b, c): v * (b + c)
                        for (b, c), v in A.coeffs.items() if b + c})
    dv, v = _int_terms(inv.coeffs)
    return Series2({(b, c): _ratio(x, da * dv * (b + c))
                    for (b, c), x in mul_trunc2(a, v, S, L).items()}, S, L)


def _power(x, n: int):
    """x^n by repeated squaring: the __pow__ of both series classes."""
    result = x.scale(0) + 1
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


class Series3:
    """Truncated series in t, s, lambda: {(a,b,c): exact coefficient} with
    a+2b <= D, c <= L."""

    __slots__ = ("coeffs", "D", "L")

    def __init__(self, coeffs, D: int, L: int):
        self.D = D
        self.L = L
        self.coeffs = {k: v for k, v in coeffs.items()
                       if v and k[0] + 2 * k[1] <= D and k[2] <= L}

    @staticmethod
    def zero(D, L) -> "Series3":
        return Series3({}, D, L)

    @staticmethod
    def const(q, D, L) -> "Series3":
        return Series3({(0, 0, 0): q}, D, L)

    @staticmethod
    def var(name, D, L) -> "Series3":
        key = {"t": (1, 0, 0), "s": (0, 1, 0), "l": (0, 0, 1)}[name]
        return Series3({key: ONE}, D, L)

    def coeff(self, a, b, c):
        return self.coeffs.get((a, b, c), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Series3):
            return NotImplemented
        return self.coeffs == other.coeffs

    def _caps(self, other):
        return min(self.D, other.D), min(self.L, other.L)

    def __add__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Series3.const(other, self.D, self.L)
        D, L = self._caps(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Series3(out, D, L)

    __radd__ = __add__

    def __neg__(self):
        return Series3({k: -v for k, v in self.coeffs.items()}, self.D, self.L)

    def __sub__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Series3.const(other, self.D, self.L)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(ONE))):
            return self.scale(other)
        D, L = self._caps(other)
        return Series3(mul_trunc3(self.coeffs, other.coeffs, D, L), D, L)

    __rmul__ = __mul__

    def scale(self, q) -> "Series3":
        if not q:
            return Series3.zero(self.D, self.L)
        return Series3({k: v * q for k, v in self.coeffs.items()},
                       self.D, self.L)

    __pow__ = _power

    def __repr__(self):
        return f"Series3(D={self.D}, L={self.L}, terms={len(self.coeffs)})"


class Series2:
    """Truncated series in s, lambda: {(b,c): exact coefficient} with
    b <= S, c <= L."""

    __slots__ = ("coeffs", "S", "L")

    def __init__(self, coeffs, S: int, L: int):
        self.S = S
        self.L = L
        self.coeffs = {k: v for k, v in coeffs.items()
                       if v and k[0] <= S and k[1] <= L}

    @staticmethod
    def zero(S, L) -> "Series2":
        return Series2({}, S, L)

    @staticmethod
    def const(q, S, L) -> "Series2":
        return Series2({(0, 0): q}, S, L)

    @staticmethod
    def var(name, S, L) -> "Series2":
        key = {"s": (1, 0), "l": (0, 1)}[name]
        return Series2({key: ONE}, S, L)

    def coeff(self, b, c):
        return self.coeffs.get((b, c), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def _caps(self, other):
        return min(self.S, other.S), min(self.L, other.L)

    def __add__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Series2.const(other, self.S, self.L)
        S, L = self._caps(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Series2(out, S, L)

    __radd__ = __add__

    def __neg__(self):
        return Series2({k: -v for k, v in self.coeffs.items()}, self.S, self.L)

    def __sub__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = Series2.const(other, self.S, self.L)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(ONE))):
            return self.scale(other)
        S, L = self._caps(other)
        da, a = _int_terms(self.coeffs)
        db, b = _int_terms(other.coeffs)
        return Series2(_divide_terms(mul_trunc2(a, b, S, L), da * db), S, L)

    __rmul__ = __mul__

    def scale(self, q) -> "Series2":
        if not q:
            return Series2.zero(self.S, self.L)
        return Series2({k: v * q for k, v in self.coeffs.items()},
                       self.S, self.L)

    __pow__ = _power

    def truncate(self, S, L) -> "Series2":
        return Series2(self.coeffs, min(self.S, S), min(self.L, L))

    def lambda_slice(self, c: int) -> Poly:
        """Coefficient of lambda^c as a Poly in s."""
        out = {}
        for (b, cc), v in self.coeffs.items():
            if cc == c:
                out[(0, b, 0, 0, 0, 0)] = v
        return Poly(out)

    def inverse(self) -> "Series2":
        """1/A.  With A = a/d for an integer series a, the integer series
        W = a_0 / a(a_0 s, a_0 lambda) solves a_0 W_k = -sum_{i != 0}
        a_0^|i| a_i W_(k-i), |i| the total degree of i, and
        [s^b lambda^c] 1/A = d W_bc / a_0^(b+c+1)."""
        d, a = _int_terms(self.coeffs)
        a0 = a.get((0, 0))
        if not a0:
            raise ZeroDivisionError("series inverse needs a nonzero constant term")
        S, L = self.S, self.L
        W = _recur(_grid({}, S, L), _grid(a, S, L, a0), a0, S, L)
        return Series2(_unscale(W, a0, d, a0), S, L)

    def sqrt(self) -> "Series2":
        """Principal square root; requires constant term 1.  With A = a/d
        for an integer series a and g = 4d, Y = sqrt(A(g s, g lambda)) is an
        integer series with 2 Y_k = a_k g^(b+c) / d - sum_{i != 0, k} Y_i
        Y_(k-i), and [s^b lambda^c] sqrt(A) = Y_bc / g^(b+c)."""
        if self.coeff(0, 0) != 1:
            raise ValueError("series sqrt needs constant term 1")
        d, a = _int_terms(self.coeffs)
        S, L, g = self.S, self.L, 4 * d
        Y = _recur(_grid(a, S, L, g, d), None, 2, S, L)
        return Series2(_unscale(Y, g), S, L)

    def log(self):
        """(series, log2_coeff): log(A) = log2_coeff * log2 + series, the
        series from `log_from_inverse`.

        The constant term must be 1 or 2; these are the only cases the
        verification needs, and log 2 is kept as a formal symbol.
        """
        c0 = self.coeff(0, 0)
        if c0 != 1 and c0 != 2:
            raise ValueError(f"log needs constant term 1 or 2, got {c0}")
        return log_from_inverse(self, self.inverse()), ONE if c0 == 2 else ZERO

    def __repr__(self):
        return f"Series2(S={self.S}, L={self.L}, terms={len(self.coeffs)})"


def assert_degree_le(A: Series2, bound: int) -> Report:
    """Check every stored monomial s^b l^c satisfies 2b - 2c <= bound."""
    t0 = time.perf_counter()
    params = {"bound": bound, "s_cap": A.S, "lambda_cap": A.L}
    worst = None
    for (b, c) in sorted(A.coeffs):
        if 2 * b - 2 * c > bound:
            worst = (b, c)
            break
    if worst is None:
        return passed("degree_le", params, len(A.coeffs), t0)
    b, c = worst
    wit = f"s^{b}*l^{c} coeff {A.coeffs[(b, c)]} has weighted degree {2*b-2*c}"
    return failed("degree_le", params, wit, len(A.coeffs), t0)


# -- Laurent series with a formal log 2 ------------------------------------


def _dmul(a: dict, b: dict, N: int) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if k > N:
                continue
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


class LaurentX:
    """q(x) + p(x)*log2 with integer exponents bounded below, capped at N."""

    __slots__ = ("q", "p", "N")

    def __init__(self, q=None, p=None, N: int = 0):
        self.N = N
        self.q = {k: v for k, v in (q or {}).items() if v and k <= N}
        self.p = {k: v for k, v in (p or {}).items() if v and k <= N}

    @staticmethod
    def const(v, N) -> "LaurentX":
        return LaurentX({0: v}, {}, N)

    @staticmethod
    def monomial(k, v, N) -> "LaurentX":
        return LaurentX({k: v}, {}, N)

    def coeff(self, k):
        """(rational part, log2 part) of x^k."""
        return self.q.get(k, ZERO), self.p.get(k, ZERO)

    def is_zero(self) -> bool:
        return not self.q and not self.p

    def __eq__(self, other):
        if not isinstance(other, LaurentX):
            return NotImplemented
        return self.q == other.q and self.p == other.p

    def __add__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = LaurentX.const(other, self.N)
        N = min(self.N, other.N)
        q = dict(self.q)
        for k, v in other.q.items():
            q[k] = q.get(k, 0) + v
        p = dict(self.p)
        for k, v in other.p.items():
            p[k] = p.get(k, 0) + v
        return LaurentX(q, p, N)

    __radd__ = __add__

    def __neg__(self):
        return LaurentX({k: -v for k, v in self.q.items()},
                        {k: -v for k, v in self.p.items()}, self.N)

    def __sub__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = LaurentX.const(other, self.N)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(ONE))):
            return self.scale(other)
        if self.p and other.p:
            raise ArithmeticError("product would create a log2^2 term")
        N = min(self.N, other.N)
        q = _dmul(self.q, other.q, N)
        p = {}
        for k, v in _dmul(self.q, other.p, N).items():
            p[k] = p.get(k, 0) + v
        for k, v in _dmul(self.p, other.q, N).items():
            p[k] = p.get(k, 0) + v
        return LaurentX(q, p, N)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentX":
        return LaurentX({k: v * c for k, v in self.q.items()},
                        {k: v * c for k, v in self.p.items()}, self.N)

    def derivative(self) -> "LaurentX":
        return LaurentX({k - 1: v * k for k, v in self.q.items() if k},
                        {k - 1: v * k for k, v in self.p.items() if k},
                        self.N)

    def log(self) -> "LaurentX":
        """log of a log2-free series with constant term 1 or 2, ord >= 0:
        the one-variable case of `Series2.log`, at caps (N, 0)."""
        if self.p:
            raise ArithmeticError("log of a log2-carrying series")
        if any(k < 0 for k in self.q):
            raise ValueError("LaurentX log needs a power series argument")
        lg, l2 = Series2({(k, 0): v for k, v in self.q.items()},
                         self.N, 0).log()
        return LaurentX({b: v for (b, _), v in lg.coeffs.items()},
                        {0: l2} if l2 else {}, self.N)

    def __repr__(self):
        return (f"LaurentX(N={self.N}, terms={len(self.q)}"
                f"+{len(self.p)}*log2)")
