"""Truncated formal power series on one core: series in (t, s, lambda),
their two-variable restriction, and the Laurent-with-log2 auxiliary series.

`_Truncated` is the one ring.  An element is a map `coeffs` from exponent
keys to exact coefficients (an `int` or a `Fraction`) and a tuple `caps`;
construction drops the terms past the caps under the class's truncation
rule, and sums and products carry the componentwise minimum of the operand
caps.  A product multiplies on ints over the operands' common denominators
and divides once, as a `Poly` product does, through the class's kernel,
which takes maps to `int`s only.  A
product by a monomial with coefficient 1 is `shift`: the keys move and the
terms moved past the caps drop.  The keys and caps of each class:

* `Series3`: t^a s^b lambda^c under (a, b, c), caps (D, L), kept when
  a + 2b <= D and c <= L; kernel `mul_trunc3`, `mul_poly`'s product cut
  to the caps.  Grading: deg t = 1, deg s = 2, deg lambda = -2.  The
  lambda order is capped separately because the weighted degree of lambda
  is negative and a single total-degree cap would be ill-founded.
* `Series2`: s^b lambda^c under (b, c), caps (S, L), kept when b <= S and
  c <= L; kernel `mul_trunc2`, which multiplies packed lambda-rows, or
  cuts `mul_poly`'s product to the caps when the rows hold mostly single
  terms.
* `LaurentX`: q(x) + p(x)*log2 with finitely many negative exponents, the
  term x^k log2^j under (k, j) with j in {0, 1}, cap (N,), kept when
  k <= N.  Log 2 is a formal symbol with componentwise equality; its
  products run through `mul_trunc2` with log2 in the place of lambda, at
  lambda-cap 1 (negative exponents are shifted to 0 for `mul_poly` and
  back), and a product of two log2 parts is refused.

One integer recurrence in order of b + c (`_recur`) gives the Series2
inverse, A_0 y_k = -sum_{i != 0} A_i y_(k-i), and square root,
2 y_k = A_k - sum_{i != 0, k} y_i y_(k-i); a substitution
(s, lambda) -> (g s, g lambda) makes each division exact.  The log is
theta^-1(theta A * A^-1) with theta = s d/ds + lambda d/dlambda, plus log 2
when A_0 = 2; `LaurentX.log` is its one-variable case.  Series3 has no
inverse, sqrt or log: `template.relation_series` gives the three-variable
log the verifier needs as its t-slices, t d/dt of the log as an integer
Series3 and the t^0 slice as a Series2, both from the binomial expansion
of (1 + tau + sigma)^-a over univariate powers of 1/(1 + tau), with no
Series2 inverse, product or log.
"""

from __future__ import annotations

from operator import add, mul

from .exactnum import ONE, ZERO
from ._kernels_py import mul_trunc2, mul_trunc3
from .polyring import Poly, _divide_terms, _int_terms, _power, _ratio


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


class _Truncated:
    """The ring shared by the three series classes (see the module doc).
    A subclass gives its key of the constant term (`_origin`), its
    truncation rule (`_cut`) and the call of its kernel (`_product`)."""

    __slots__ = ("coeffs", "caps")

    def __init__(self, coeffs, *caps):
        self.caps = caps
        self.coeffs = self._cut(coeffs, *caps)

    @classmethod
    def zero(cls, *caps):
        return cls({}, *caps)

    @classmethod
    def const(cls, q, *caps):
        return cls({cls._origin: q}, *caps)

    def coeff(self, *key):
        return self.coeffs.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def _caps(self, other) -> tuple:
        return tuple(map(min, self.caps, other.caps))

    def __add__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = self.const(other, *self.caps)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out, *self._caps(other))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coeffs.items()}, *self.caps)

    def __sub__(self, other):
        if isinstance(other, (int, type(ONE))):
            other = self.const(other, *self.caps)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(ONE))):
            return self.scale(other)
        caps = self._caps(other)
        da, a = _int_terms(self.coeffs)
        db, b = _int_terms(other.coeffs)
        return type(self)(_divide_terms(self._product(a, b, caps), da * db),
                          *caps)

    __rmul__ = __mul__

    def scale(self, q):
        # on ints over one common denominator, like a product
        d, ints = _int_terms(self.coeffs)
        n = q.numerator
        return type(self)(_divide_terms({k: v * n for k, v in ints.items()},
                                        d * q.denominator), *self.caps)

    def shift(self, *offset):
        """The product by the monomial with exponents `offset`, the trailing
        ones 0 when left out, and coefficient 1: every key moves by
        `offset`, and the terms moved past the caps drop."""
        offset += (0,) * (len(self._origin) - len(offset))
        return type(self)({tuple(map(add, k, offset)): v
                           for k, v in self.coeffs.items()}, *self.caps)

    __pow__ = _power

    def __repr__(self):
        return (f"{type(self).__name__}(caps={self.caps}, "
                f"terms={len(self.coeffs)})")


class Series3(_Truncated):
    """Truncated series in t, s, lambda: {(a,b,c): exact coefficient} with
    a+2b <= D, c <= L."""

    __slots__ = ()
    _origin = (0, 0, 0)

    @staticmethod
    def _cut(coeffs, D, L):
        return {k: v for k, v in coeffs.items()
                if v and k[0] + 2 * k[1] <= D and k[2] <= L}

    def _product(self, a, b, caps):
        return mul_trunc3(a, b, *caps)


class Series2(_Truncated):
    """Truncated series in s, lambda: {(b,c): exact coefficient} with
    b <= S, c <= L."""

    __slots__ = ()
    _origin = (0, 0)

    @staticmethod
    def _cut(coeffs, S, L):
        return {k: v for k, v in coeffs.items()
                if v and k[0] <= S and k[1] <= L}

    @staticmethod
    def var(name, S, L) -> "Series2":
        key = {"s": (1, 0), "l": (0, 1)}[name]
        return Series2({key: 1}, S, L)

    def _product(self, a, b, caps):
        return mul_trunc2(a, b, *caps)

    def truncate(self, S, L) -> "Series2":
        return Series2(self.coeffs, *map(min, self.caps, (S, L)))

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
        S, L = self.caps
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
        S, L = self.caps
        g = 4 * d
        Y = _recur(_grid(a, S, L, g, d), None, 2, S, L)
        return Series2(_unscale(Y, g), S, L)

    def log(self):
        """(series, log2_coeff): log(A) = log2_coeff * log2 + series.  With
        theta = s d/ds + lambda d/dlambda, the series log(A / A_0) is
        theta^-1(theta A * A^-1), where theta^-1 divides the s^b lambda^c
        coefficient by b + c; the product runs on ints.

        The constant term must be 1 or 2; these are the only cases the
        verification needs, and log 2 is kept as a formal symbol.
        """
        c0 = self.coeff(0, 0)
        if c0 != 1 and c0 != 2:
            raise ValueError(f"log needs constant term 1 or 2, got {c0}")
        S, L = self.caps
        da, a = _int_terms({(b, c): v * (b + c)
                            for (b, c), v in self.coeffs.items() if b + c})
        dv, v = _int_terms(self.inverse().coeffs)
        lg = {(b, c): _ratio(x, da * dv * (b + c))
              for (b, c), x in mul_trunc2(a, v, S, L).items()}
        return Series2(lg, S, L), ONE if c0 == 2 else ZERO


# -- Laurent series with a formal log 2 ------------------------------------


class LaurentX(_Truncated):
    """q(x) + p(x)*log2 with integer exponents bounded below, capped at N:
    {(k, j): exact coefficient of x^k log2^j}, j in {0, 1}, k <= N."""

    __slots__ = ()
    _origin = (0, 0)

    @staticmethod
    def _cut(coeffs, N):
        return {k: v for k, v in coeffs.items() if v and k[0] <= N}

    def _product(self, a, b, caps):
        if any(j for _, j in a) and any(j for _, j in b):
            raise ArithmeticError("product would create a log2^2 term")
        return mul_trunc2(a, b, *caps, 1)

    def derivative(self) -> "LaurentX":
        return LaurentX({(k - 1, j): v * k
                         for (k, j), v in self.coeffs.items() if k},
                        *self.caps)

    def log(self) -> "LaurentX":
        """log of a log2-free series with constant term 1 or 2, ord >= 0:
        the one-variable case of `Series2.log`, at caps (N, 0)."""
        if any(j for _, j in self.coeffs):
            raise ArithmeticError("log of a log2-carrying series")
        if any(k < 0 for k, _ in self.coeffs):
            raise ValueError("LaurentX log needs a power series argument")
        lg, l2 = Series2(self.coeffs, *self.caps, 0).log()
        return LaurentX({**lg.coeffs, (0, 1): l2}, *self.caps)
