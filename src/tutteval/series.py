"""Truncated formal power series in (t, s, lambda), their two-variable
restriction, and the Laurent-with-log2 auxiliary series.

Grading: deg t = 1, deg s = 2, deg lambda = -2.  A Series3 stores
coefficients for monomials t^a s^b l^c with a + 2b <= D and c <= L; the
lambda order is capped separately because the weighted degree of lambda is
negative and a single total-degree cap would be ill-founded.  A Series2 is
the t-free case with caps b <= S, c <= L.

All arithmetic is exact and eager; results carry the componentwise minimum
of the operand caps.  Newton iteration (doubling accuracy per step against
the filtration by a + 2b + c resp. b + c) drives inverse and sqrt.

LaurentX adjoins a formal symbol for log 2 with componentwise equality:
an element is q(x) + p(x)*log2 with finitely many negative exponents.
"""

from __future__ import annotations

from .exactnum import ONE, Rat, ZERO
from ._kernels_py import mul_trunc2, mul_trunc3
from .polyring import Poly
from .report import Report, failed, passed
import time


def _q(x):
    return Rat(x) if isinstance(x, int) else x


def _niter(total: int) -> int:
    """Newton iterations needed for accuracy beyond `total`."""
    n, acc = 0, 1
    while acc <= total:
        acc *= 2
        n += 1
    return n


class Series3:
    """Truncated series in t, s, lambda: {(a,b,c): Rat} with a+2b <= D, c <= L."""

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
        return Series3({(0, 0, 0): _q(q)}, D, L)

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
            out[k] = out.get(k, ZERO) + v
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
        q = _q(q)
        if not q:
            return Series3.zero(self.D, self.L)
        return Series3({k: v * q for k, v in self.coeffs.items()},
                       self.D, self.L)

    def __pow__(self, n: int) -> "Series3":
        result = Series3.const(1, self.D, self.L)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, D, L) -> "Series3":
        return Series3(self.coeffs, min(self.D, D), min(self.L, L))

    # -- calculus ----------------------------------------------------------

    def deriv_t(self) -> "Series3":
        out = {}
        for (a, b, c), v in self.coeffs.items():
            if a:
                out[(a - 1, b, c)] = v * a
        return Series3(out, self.D, self.L)

    def integrate_t(self) -> "Series3":
        out = {}
        for (a, b, c), v in self.coeffs.items():
            out[(a + 1, b, c)] = v / (a + 1)
        return Series3(out, self.D, self.L)

    # -- slices ------------------------------------------------------------

    def lambda_slice(self, c: int) -> Poly:
        """Coefficient of lambda^c as a Poly in (t, s)."""
        out = {}
        for (a, b, cc), v in self.coeffs.items():
            if cc == c:
                out[(a, b, 0, 0, 0, 0)] = v
        return Poly(out)

    def t_zero(self) -> "Series2":
        out = {}
        for (a, b, c), v in self.coeffs.items():
            if a == 0:
                out[(b, c)] = v
        return Series2(out, self.D // 2, self.L)

    @staticmethod
    def from_series2(A: "Series2", D: int, L: int) -> "Series3":
        return Series3({(0, b, c): v for (b, c), v in A.coeffs.items()}, D, L)

    # -- inverse / sqrt / log ----------------------------------------------

    def inverse(self) -> "Series3":
        c0 = self.coeff(0, 0, 0)
        if not c0:
            raise ZeroDivisionError("series inverse needs a nonzero constant term")
        x = Series3.const(ONE / c0, self.D, self.L)
        two = Series3.const(2, self.D, self.L)
        for _ in range(_niter(self.D + self.L)):
            x = x * (two - self * x)
        return x

    def sqrt(self) -> "Series3":
        """Principal square root; requires constant term 1."""
        if self.coeff(0, 0, 0) != ONE:
            raise ValueError("series sqrt needs constant term 1")
        z = Series3.const(1, self.D, self.L)
        three = Series3.const(3, self.D, self.L)
        half = Rat(1, 2)
        for _ in range(_niter(self.D + self.L)):
            z = (z * (three - self * z * z)).scale(half)
        return self * z

    def log(self):
        """log of a series with constant term 1.

        Computed through d/dt when t occurs (a dozen products instead of
        one per summation order), falling back to the plain alternating sum
        on t-free input.
        """
        if self.coeff(0, 0, 0) != ONE:
            raise ValueError("Series3 log needs constant term 1")
        if any(k[0] for k in self.coeffs):
            t_part = (self.deriv_t() * self.inverse()).integrate_t()
            # the constant term is 1, so the log 2 part is zero
            base, _ = self.t_zero().log()
            return t_part + Series3.from_series2(base, self.D, self.L)
        base, _ = self.t_zero().log()
        return Series3.from_series2(base, self.D, self.L)

    def __repr__(self):
        return f"Series3(D={self.D}, L={self.L}, terms={len(self.coeffs)})"

    def __str__(self):
        return series3_to_str(self)


class Series2:
    """Truncated series in s, lambda: {(b,c): Rat} with b <= S, c <= L."""

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
        return Series2({(0, 0): _q(q)}, S, L)

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
            out[k] = out.get(k, ZERO) + v
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
        return Series2(mul_trunc2(self.coeffs, other.coeffs, S, L), S, L)

    __rmul__ = __mul__

    def scale(self, q) -> "Series2":
        q = _q(q)
        if not q:
            return Series2.zero(self.S, self.L)
        return Series2({k: v * q for k, v in self.coeffs.items()},
                       self.S, self.L)

    def __pow__(self, n: int) -> "Series2":
        result = Series2.const(1, self.S, self.L)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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
        c0 = self.coeff(0, 0)
        if not c0:
            raise ZeroDivisionError("series inverse needs a nonzero constant term")
        x = Series2.const(ONE / c0, self.S, self.L)
        two = Series2.const(2, self.S, self.L)
        for _ in range(_niter(self.S + self.L)):
            x = x * (two - self * x)
        return x

    def sqrt(self) -> "Series2":
        if self.coeff(0, 0) != ONE:
            raise ValueError("series sqrt needs constant term 1")
        z = Series2.const(1, self.S, self.L)
        three = Series2.const(3, self.S, self.L)
        half = Rat(1, 2)
        for _ in range(_niter(self.S + self.L)):
            z = (z * (three - self * z * z)).scale(half)
        return self * z

    def log(self):
        """(series, log2_coeff): log(A) = log2_coeff * log2 + series.

        The constant term must be 1 or 2; these are the only cases the
        verification needs, and log 2 is kept as a formal symbol.
        """
        c0 = self.coeff(0, 0)
        if c0 == ONE:
            l2 = ZERO
            u = self - 1
        elif c0 == Rat(2):
            l2 = ONE
            u = self.scale(Rat(1, 2)) - 1
        else:
            raise ValueError(f"Series2 log needs constant term 1 or 2, got {c0}")
        nmax = self.S + self.L
        if nmax == 0:
            return Series2.zero(self.S, self.L), l2
        acc = Series2.const(Rat(1 if nmax % 2 else -1, nmax), self.S, self.L)
        for n in range(nmax - 1, 0, -1):
            acc = acc * u + Rat(1 if n % 2 else -1, n)
        return acc * u, l2

    def __repr__(self):
        return f"Series2(S={self.S}, L={self.L}, terms={len(self.coeffs)})"

    def __str__(self):
        return series2_to_str(self)


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
            out[k] = out.get(k, ZERO) + va * vb
    return {k: v for k, v in out.items() if v}


class LaurentX:
    """q(x) + p(x)*log2 with integer exponents bounded below, capped at N."""

    __slots__ = ("q", "p", "N")

    def __init__(self, q=None, p=None, N: int = 0):
        self.N = N
        self.q = {k: v for k, v in (q or {}).items() if v and k <= N}
        self.p = {k: v for k, v in (p or {}).items() if v and k <= N}

    @staticmethod
    def zero(N) -> "LaurentX":
        return LaurentX({}, {}, N)

    @staticmethod
    def const(v, N) -> "LaurentX":
        return LaurentX({0: _q(v)}, {}, N)

    @staticmethod
    def monomial(k, v, N) -> "LaurentX":
        return LaurentX({k: _q(v)}, {}, N)

    @staticmethod
    def log2(N) -> "LaurentX":
        return LaurentX({}, {0: ONE}, N)

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
            q[k] = q.get(k, ZERO) + v
        p = dict(self.p)
        for k, v in other.p.items():
            p[k] = p.get(k, ZERO) + v
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
            p[k] = p.get(k, ZERO) + v
        for k, v in _dmul(self.p, other.q, N).items():
            p[k] = p.get(k, ZERO) + v
        return LaurentX(q, p, N)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentX":
        c = _q(c)
        return LaurentX({k: v * c for k, v in self.q.items()},
                        {k: v * c for k, v in self.p.items()}, self.N)

    def derivative(self) -> "LaurentX":
        return LaurentX({k - 1: v * k for k, v in self.q.items() if k},
                        {k - 1: v * k for k, v in self.p.items() if k},
                        self.N)

    def min_exponent(self):
        keys = list(self.q) + list(self.p)
        return min(keys) if keys else None

    def log(self) -> "LaurentX":
        """log of a log2-free series with constant term 1 or 2, ord >= 0."""
        if self.p:
            raise ArithmeticError("log of a log2-carrying series")
        e0 = self.min_exponent()
        if e0 is None or e0 < 0:
            raise ValueError("LaurentX log needs a power series argument")
        c0 = self.q.get(0, ZERO)
        if c0 == ONE:
            l2 = ZERO
            u = {k: v for k, v in self.q.items() if k}
        elif c0 == Rat(2):
            l2 = ONE
            u = {k: v / Rat(2) for k, v in self.q.items() if k}
        else:
            raise ValueError(f"LaurentX log needs constant 1 or 2, got {c0}")
        ordu = min(u) if u else self.N + 1
        nmax = self.N // ordu + 1 if u else 0
        acc = {}
        for n in range(nmax, 0, -1):
            # acc <- acc*u + (-1)^(n+1)/n
            acc = _dmul(acc, u, self.N)
            acc[0] = acc.get(0, ZERO) + Rat(1 if n % 2 else -1, n)
        acc = _dmul(acc, u, self.N)
        return LaurentX(acc, {0: l2} if l2 else {}, self.N)

    def __repr__(self):
        return (f"LaurentX(N={self.N}, terms={len(self.q)}"
                f"+{len(self.p)}*log2)")


# -- text serialization ----------------------------------------------------


def series3_to_str(A: Series3) -> str:
    lines = [f"caps D={A.D}, L={A.L}"]
    for (a, b, c) in sorted(A.coeffs, key=lambda k: (k[0] + 2 * k[1], k)):
        lines.append(f"{A.coeffs[(a, b, c)]} * t^{a} s^{b} l^{c}")
    return "\n".join(lines)


def series2_to_str(A: Series2) -> str:
    lines = [f"caps S={A.S}, L={A.L}"]
    for (b, c) in sorted(A.coeffs):
        lines.append(f"{A.coeffs[(b, c)]} * s^{b} l^{c}")
    return "\n".join(lines)
