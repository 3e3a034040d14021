"""Product kernels: the packed-monomial `mul_poly` and the truncated
products must equal a naive tuple-key product on `Fraction`s."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tutteval._kernels_py import mul_poly, mul_trunc2, mul_trunc3
from tutteval.exactnum import Rat

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
