"""Arbitrary-precision rational arithmetic and the combinatorial scalars.

`Rat(num, den)` builds an exact rational, a `fractions.Fraction`: normalized
to gcd(|num|, den) = 1 with den >= 1, rendered as "num/den" (den omitted
when 1), immutable and hashable.
"""

import math
from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat_str(q) -> str:
    """Canonical decimal text rendering, "num/den" with den omitted when 1."""
    return str(q)


def rat_gcd(a, b):
    """gcd of two rationals: gcd(nums)/lcm(dens), nonnegative.

    This is the content notion for polynomials over the rationals: dividing a
    coefficient list by its rat_gcd leaves coprime integers.
    """
    return Rat(math.gcd(a.numerator, b.numerator),
               math.lcm(a.denominator, b.denominator))


def binomial(n: int, k: int):
    """C(n, k) as a Rat; 0 outside the range 0 <= k <= n (or n < 0).

    The out-of-range-is-zero convention collapses boundary cases in the
    template sums, so no caller needs to guard its index ranges.
    """
    if n < 0 or k < 0 or k > n:
        return ZERO
    return Rat(math.comb(n, k))


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def double_factorial(i: int) -> int:
    """i!! = i(i-2)(i-4)... with the conventions (-1)!! = 0 and 0!! = 1."""
    if i < -1:
        raise ValueError(f"double factorial undefined for {i}")
    if i == -1:
        return 0
    acc = 1
    while i > 1:
        acc *= i
        i -= 2
    return acc
