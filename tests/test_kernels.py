"""Product kernels: the mixed-radix `mul_poly`, on both of its
accumulators, the truncated products and the `Series2` product must equal a
naive tuple-key product on `Fraction`s."""

from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from tutteval._kernels_py import mul_poly, mul_trunc2, mul_trunc3
from tutteval.exactnum import Rat
from tutteval.series import Series2

coeffs = st.builds(Rat,
                   st.integers(min_value=-50, max_value=50).filter(bool),
                   st.integers(min_value=1, max_value=7))
big_ints = st.integers(min_value=-2 ** 130, max_value=2 ** 130).filter(bool)

maps3 = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4)),
    coeffs, max_size=8)
maps2 = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 5)), coeffs, max_size=8)
maps6 = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 6), coeffs, max_size=8)
int_maps6 = st.dictionaries(
    st.tuples(*[st.integers(0, 9)] * 6), big_ints, max_size=12)


def naive_product(A: dict, B: dict) -> dict:
    """Reference product: tuple keys added componentwise, Fraction sums."""
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            out[k] = out.get(k, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {k: v for k, v in out.items() if v}


def _truncated(P: dict, keep) -> dict:
    return {k: v for k, v in P.items() if keep(k)}


@given(maps6, maps6)
@settings(max_examples=80)
def test_mul_poly_matches_naive(A, B):
    assert mul_poly(A, B) == naive_product(A, B)


@given(int_maps6, int_maps6)
@settings(max_examples=80)
def test_mul_poly_on_ints_matches_naive(A, B):
    P = mul_poly(A, B)
    assert P == naive_product(A, B)
    assert all(type(c) is int for c in P.values())


@given(st.integers(1, 9), st.integers(0, 5), st.data())
@settings(max_examples=60)
def test_mul_poly_at_field_width_boundary(k, i, data):
    # the product's total degree is exactly 2^k - 1 (fields just fit their
    # width) or 2^k (one more bit): no field may carry into its neighbour
    top = 2 ** k - 1 + data.draw(st.integers(0, 1))
    da = data.draw(st.integers(0, top))
    ea = [0] * 6
    ea[i] = da
    eb = [0] * 6
    eb[data.draw(st.integers(0, 5))] = top - da
    A = {tuple(ea): Rat(3), (0,) * 6: Rat(-1)}
    B = {tuple(eb): Rat(5, 2), (1, 0, 0, 0, 0, 0): Rat(7)}
    P = mul_poly(A, B)
    assert P == naive_product(A, B)
    assert max(sum(m) for m in P) == max(top, da + 1, 1)


@given(maps3, maps3, st.integers(0, 12), st.integers(0, 8))
@settings(max_examples=60)
def test_trunc3_matches_naive(A, B, D, L):
    assert mul_trunc3(A, B, D, L) == _truncated(
        naive_product(A, B), lambda m: m[0] + 2 * m[1] <= D and m[2] <= L)


@given(maps2, maps2, st.integers(0, 10), st.integers(0, 8))
@settings(max_examples=60)
def test_trunc2_matches_naive(A, B, S, L):
    assert mul_trunc2(A, B, S, L) == _truncated(
        naive_product(A, B), lambda m: m[0] <= S and m[1] <= L)


def test_trunc3_examples():
    A = {(1, 0, 0): Rat(2)}
    B = {(0, 1, 0): Rat(3), (2, 0, 0): Rat(1)}
    assert mul_trunc3(A, B, 3, 2) == {(1, 1, 0): Rat(6), (3, 0, 0): Rat(2)}
    # truncation drops a + 2b over the cap
    assert mul_trunc3(A, B, 2, 2) == {}


def test_mul_poly_cancellation():
    A = {(1, 0, 0, 0, 0, 0): Rat(1), (0, 1, 0, 0, 0, 0): Rat(1)}
    B = {(1, 0, 0, 0, 0, 0): Rat(1), (0, 1, 0, 0, 0, 0): Rat(-1)}
    # (t+s)(t-s) = t^2 - s^2: the ts cross terms cancel and must vanish
    assert mul_poly(A, B) == {(2, 0, 0, 0, 0, 0): Rat(1),
                              (0, 2, 0, 0, 0, 0): Rat(-1)}
    assert mul_poly(A, {}) == {} and mul_poly({}, B) == {}


# -- the two accumulators of mul_poly ----------------------------------------
#
# The products accumulate into a flat list over the exponent box when the
# box has no more cells than there are term pairs, and into a dict
# otherwise; each case below states which side of that line it is on.


def _box(A: dict, B: dict) -> int:
    return prod(max(ea) + max(eb) + 1 for ea, eb in zip(zip(*A), zip(*B)))


def _sl(i: int, j: int) -> tuple:
    return (0, i, j, 0, 0, 0)


mixed = st.one_of(st.integers(-10 ** 20, 10 ** 20), coeffs)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.data())
@settings(max_examples=60)
def test_mul_poly_flat_on_dense_two_variable_grids(p, q, p2, q2, data):
    nonzero = mixed.filter(bool)
    A = {_sl(i, j): data.draw(nonzero) for i in range(p + 1)
         for j in range(q + 1)}
    B = {_sl(i, j): data.draw(nonzero) for i in range(p2 + 1)
         for j in range(q2 + 1)}
    assert _box(A, B) <= len(A) * len(B)
    assert mul_poly(A, B) == naive_product(A, B)


@given(st.integers(1, 30), st.integers(0, 1), st.data())
@settings(max_examples=60)
def test_mul_poly_at_the_accumulator_boundary(n, extra, data):
    # A = 1 + s + ... + s^(n-1) and B = 1 + s^(n + extra): a box of exactly
    # len(A) len(B) = 2n cells (flat), and one cell more (dict)
    nonzero = mixed.filter(bool)
    A = {_sl(i, 0): data.draw(nonzero) for i in range(n)}
    B = {_sl(0, 0): data.draw(nonzero), _sl(n + extra, 0): data.draw(nonzero)}
    assert _box(A, B) == len(A) * len(B) + extra
    assert mul_poly(A, B) == naive_product(A, B)


def test_mul_poly_dict_on_a_sparse_pair():
    A = {_sl(500, 500): 1, _sl(0, 0): 1}
    B = {_sl(500, 500): 1, _sl(0, 0): -1}
    assert _box(A, B) > len(A) * len(B)
    P = mul_poly(A, B)
    assert P == naive_product(A, B) == {_sl(1000, 1000): 1, _sl(0, 0): -1}
    C = {_sl(500, 0): 3, _sl(0, 500): Rat(-1, 2), _sl(1, 1): 7}
    assert mul_poly(A, C) == naive_product(A, C)
    assert mul_poly(C, C) == naive_product(C, C)


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                       mixed, max_size=10),
       st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                       mixed, max_size=10),
       st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=80)
def test_series2_product_with_mixed_denominators(A, B, S, L):
    def keep(m):
        return m[0] <= S and m[1] <= L

    P = Series2(A, S, L) * Series2(B, S, L)
    assert P.coeffs == _truncated(
        naive_product(_truncated(A, keep), _truncated(B, keep)), keep)
    assert all(type(c) is int for c in P.coeffs.values()
               if c.denominator == 1)
