"""Arbitrary-precision rational arithmetic and the combinatorial scalars.

`Rat(num, den)` builds an exact rational, a `fractions.Fraction`: normalized
to gcd(|num|, den) = 1 with den >= 1, rendered as "num/den" (den omitted
when 1), immutable and hashable.
"""

import math
from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat_gcd(a, b):
    """gcd of two rationals: gcd(nums)/lcm(dens), nonnegative.

    This is the content notion for polynomials over the rationals: dividing a
    coefficient list by its rat_gcd leaves coprime integers.
    """
    return Rat(math.gcd(a.numerator, b.numerator),
               math.lcm(a.denominator, b.denominator))


def rank(rows) -> int:
    """Exact rank of rational (int or Rat) row vectors; 0 for no rows.

    Fraction-free elimination on integers (cf. E. H. Bareiss, Math. Comp.
    22, 1968): each row is cleared of its denominators, and a pivot row p
    with first nonzero entry p[j] turns every other row r into
    p[j] r - r[j] p, divided by its content."""
    work = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (den // x.denominator) for x in row])
    out = 0
    while work := [r for r in work if any(r)]:
        piv = work.pop()
        j, p = next((k, x) for k, x in enumerate(piv) if x)
        for i, row in enumerate(work):
            c = row[j]
            if c:
                row = [p * a - c * b for a, b in zip(row, piv)]
                g = math.gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row
        out += 1
    return out


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
