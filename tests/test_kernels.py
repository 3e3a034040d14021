"""Product kernels: the mixed-radix `mul_poly`, on both of its
accumulators, and the truncated products, on maps to ints as every caller
gives them, and the `Series2` product, on any exact coefficients, must
equal a naive tuple-key product on `Fraction`s."""

from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tutteval import _kernels_py, polyring
from tutteval._kernels_py import mul_poly, mul_trunc2, mul_trunc3
from tutteval.exactnum import Rat
from tutteval.polyring import Poly
from tutteval.series import Series2

coeffs = st.integers(min_value=-50, max_value=50).filter(bool)
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
    A = {tuple(ea): 3, (0,) * 6: -1}
    B = {tuple(eb): 5, (1, 0, 0, 0, 0, 0): 7}
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
    A = {(1, 0, 0): 2}
    B = {(0, 1, 0): 3, (2, 0, 0): 1}
    assert mul_trunc3(A, B, 3, 2) == {(1, 1, 0): 6, (3, 0, 0): 2}
    # truncation drops a + 2b over the cap
    assert mul_trunc3(A, B, 2, 2) == {}


def test_mul_poly_cancellation():
    A = {(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1}
    B = {(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): -1}
    # (t+s)(t-s) = t^2 - s^2: the ts cross terms cancel and must vanish
    assert mul_poly(A, B) == {(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): -1}
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


wide = st.integers(-10 ** 20, 10 ** 20)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.data())
@settings(max_examples=60)
def test_mul_poly_flat_on_dense_two_variable_grids(p, q, p2, q2, data):
    nonzero = wide.filter(bool)
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
    nonzero = wide.filter(bool)
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
    C = {_sl(500, 0): 3, _sl(0, 500): -1, _sl(1, 1): 7}
    assert mul_poly(A, C) == naive_product(A, C)
    assert mul_poly(C, C) == naive_product(C, C)


mixed = st.one_of(wide, st.builds(Rat, st.integers(-50, 50).filter(bool),
                                   st.integers(1, 7)))


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                       mixed, max_size=10),
       st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                       mixed, max_size=10),
       st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=80)
def test_series2_product_with_mixed_denominators(A, B, S, L):
    # the product clears both denominators, so its kernel gets ints
    def keep(m):
        return m[0] <= S and m[1] <= L

    P = Series2(A, S, L) * Series2(B, S, L)
    assert P.coeffs == _truncated(
        naive_product(_truncated(A, keep), _truncated(B, keep)), keep)
    assert all(type(c) is int for c in P.coeffs.values()
               if c.denominator == 1)


# -- the two paths of mul_trunc2 ---------------------------------------------
#
# Operands with at least three terms per two lambda-rows each are
# multiplied as packed rows, the others term pair by term pair;
# each case below states which side of that line it is on, and checks it.


def _trunc2_path(A: dict, B: dict, S: int, L: int) -> tuple:
    """mul_trunc2(A, B, S, L) and whether it multiplied packed rows."""
    with mock.patch.object(_kernels_py, "_mul_rows",
                           wraps=_kernels_py._mul_rows) as rows:
        P = mul_trunc2(A, B, S, L)
    return P, rows.called


def _trunc2(A: dict, B: dict, S: int, L: int) -> dict:
    return _truncated(naive_product(A, B), lambda m: m[0] <= S and m[1] <= L)


def _grid(rows: int, cols: int, draw) -> dict:
    return {(b, c): draw() for b in range(rows) for c in range(cols)}


int_maps2 = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                            big_ints, max_size=14)


@given(int_maps2, int_maps2, st.integers(0, 10), st.integers(0, 8))
@settings(max_examples=80)
def test_trunc2_on_ints_matches_naive(A, B, S, L):
    P = _trunc2_path(A, B, S, L)[0]
    assert P == _trunc2(A, B, S, L)
    assert all(type(c) is int for c in P.values())


@given(st.integers(1, 4), st.integers(2, 3), st.integers(-6, 4), st.data())
@settings(max_examples=60)
def test_trunc2_with_negative_s_exponents(rows, cols, S, data):
    # a Laurent series multiplies with negative first exponents: dense
    # grids take the packed path, one term per row the pair loop
    def draw():
        return data.draw(big_ints)

    A = {(b - 3, c): v for (b, c), v in _grid(rows, cols, draw).items()}
    B = {(b - 2, c): v for (b, c), v in _grid(rows, cols, draw).items()}
    P, packed = _trunc2_path(A, B, S, 1)
    assert packed and P == _trunc2(A, B, S, 1)
    single = {(b - 2, 0): draw() for b in range(rows)}
    P, packed = _trunc2_path(A, single, S, 1)
    assert not packed and P == _trunc2(A, single, S, 1)


@given(st.integers(1, 5), st.integers(2, 6), st.integers(1, 5),
       st.integers(2, 6), st.integers(0, 9), st.integers(0, 9), st.data())
@settings(max_examples=80)
def test_trunc2_packed_on_dense_grids(p, q, p2, q2, S, L, data):
    # negative coefficients and coefficients past 2^64; rows b1 + b2 > S
    # and slots c > L drop out, down to S = 0 and L = 0
    A = _grid(p, q, lambda: data.draw(big_ints))
    B = _grid(p2, q2, lambda: data.draw(big_ints))
    P, packed = _trunc2_path(A, B, S, L)
    assert packed and P == _trunc2(A, B, S, L)
    assert all(type(c) is int for c in P.values())


def test_trunc2_packed_caps_zero():
    # packed, with every row pair but (0, 0) past S = 0 and every slot but
    # lambda^0 past L = 0
    A = {(0, 0): 2, (0, 1): -3, (1, 0): 5, (1, 1): 7}
    B = {(0, 0): -1, (0, 2): 4, (2, 0): 6, (2, 1): 1}
    assert _trunc2_path(A, B, 0, 0) == ({(0, 0): -2}, True)
    assert _trunc2_path(A, B, 0, 9) == (_trunc2(A, B, 0, 9), True)
    assert _trunc2_path(A, B, 9, 0) == (_trunc2(A, B, 9, 0), True)
    assert _trunc2(A, B, 9, 0) == {(0, 0): -2, (1, 0): -5, (2, 0): 12,
                                   (3, 0): 30}


def test_trunc2_packed_slot_cancels():
    # (1 + lambda)(1 + s) (1 - lambda)(1 + s) = (1 - lambda^2)(1 + s)^2, on
    # the packed side: the lambda^1 slots cancel and must not be stored
    A = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    B = {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}
    want = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 2): -1, (1, 2): -2,
            (2, 2): -1}
    assert _trunc2(A, B, 4, 4) == want
    assert _trunc2_path(A, B, 4, 4) == (want, True)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("terms, coeff, bits", [(7, 4681, 15), (5, 13107, 16)])
def test_trunc2_packed_slot_at_the_bound(sign, terms, coeff, bits):
    # max|A| max|B| min(len A, len B) = coeff * 1 * terms = 2^bits - 1, and
    # the lambda^(terms-1) slot reaches it: 2^15 - 1 fills two bytes with
    # their sign bit, and 2^16 - 1 needs a third byte for the sign
    A = {(0, c): sign * coeff for c in range(terms)}
    B = {(0, c): 1 for c in range(terms)}
    assert coeff * terms == 2 ** bits - 1
    P, packed = _trunc2_path(A, B, 0, 12)
    assert packed and P == _trunc2(A, B, 0, 12)
    assert P[(0, terms - 1)] == sign * (2 ** bits - 1)


@given(int_maps2, st.integers(0, 10), st.integers(0, 8))
@settings(max_examples=40)
def test_trunc2_pair_loop_on_empty_and_one_term_operands(B, S, L):
    one = {(1, 2): -(2 ** 70) - 1}
    assert _trunc2_path({}, B, S, L) == _trunc2_path(B, {}, S, L) \
        == ({}, False)
    assert _trunc2_path(one, B, S, L) == (_trunc2(one, B, S, L), False)
    assert _trunc2_path(B, one, S, L) == (_trunc2(B, one, S, L), False)


@given(st.integers(1, 6), st.integers(0, 1), st.integers(0, 12),
       st.integers(0, 6), st.data())
@settings(max_examples=60)
def test_trunc2_at_the_density_switch(r, short, S, L, data):
    # 2r rows holding 3r terms (packed), or one term fewer (pair loop),
    # against a dense grid
    keys = [(b, 0) for b in range(2 * r)] + [(b, 1) for b in range(r)]
    A = {k: data.draw(big_ints) for k in keys[:len(keys) - short]}
    B = _grid(3, 3, lambda: data.draw(big_ints))
    assert _trunc2_path(A, B, S, L) == (_trunc2(A, B, S, L), not short)


# -- the sheared Kronecker box -----------------------------------------------
#
# Only `polyring.sums_of_products` packs (`mul_packed`): `mul_poly` shifts
# and scales by a one-term operand and takes the pair loop otherwise, however
# large its operands.  Each case below states which path it takes, and
# checks it.


def _poly_path(A: dict, B: dict) -> tuple:
    """mul_poly(A, B) and whether it multiplied packed."""
    with mock.patch.object(_kernels_py, "mul_packed",
                           wraps=_kernels_py.mul_packed) as packed:
        P = mul_poly(A, B)
    return P, packed.called


def _key(u: int, v: int, a: int, b: int) -> tuple:
    k = [0] * 6
    k[u], k[v] = a, b
    return tuple(k)


def _band(u, v, n, slope, width, draw) -> dict:
    """n terms a, b = floor(slope a) + j, j < width, from a = 0 up."""
    return {_key(u, v, a, int(slope * a) + j): draw()
            for a in range(n) for j in range(width)}


def _sum_naive(pairs) -> dict:
    out = {}
    for A, B in pairs:
        for k, c in naive_product(A, B).items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


variable_pairs = st.lists(st.integers(0, 5), min_size=2, max_size=2,
                          unique=True).map(sorted)
int_maps_uv = st.dictionaries(st.tuples(st.integers(0, 12),
                                        st.integers(0, 12)),
                              big_ints, min_size=1, max_size=14)


@pytest.mark.parametrize("q", _kernels_py.SHEARS)
@given(variable_pairs, st.sampled_from([0, 0.5, 1, 1.4, 2, 3]),
       st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_mul_packed_on_bands_under_every_shear(q, uv, slope, n1, n2, width,
                                               data):
    # negative coefficients and coefficients past 2^64, along bands of any
    # slope, with the shear fixed to q whether or not it is the best
    u, v = uv
    A = _band(u, v, n1, slope, width, lambda: data.draw(big_ints))
    B = _band(u, v, n2, slope, width, lambda: data.draw(big_ints))
    with mock.patch.object(_kernels_py, "SHEARS", (q,)):
        P, = _kernels_py.mul_packed([[(A, B)]], u, v)
    assert P == naive_product(A, B)
    assert all(type(c) is int for c in P.values())


@pytest.mark.parametrize("q", _kernels_py.SHEARS)
@given(variable_pairs, int_maps_uv, int_maps_uv, st.booleans())
@settings(max_examples=40)
def test_mul_packed_on_random_maps_under_every_shear(q, uv, A, B, one_var):
    # any two of the six variables; with one_var, every exponent of v is 0
    u, v = uv
    A = {_key(u, v, a, 0 if one_var else b): c for (a, b), c in A.items()}
    B = {_key(u, v, a, b): c for (a, b), c in B.items()}
    with mock.patch.object(_kernels_py, "SHEARS", (q,)):
        want = [naive_product(A, B)]
        assert _kernels_py.mul_packed([[(A, B)]], u, v) == want
        assert _kernels_py.mul_packed([[(B, A)]], u, v) == want


@pytest.mark.parametrize("q", _kernels_py.SHEARS)
@given(variable_pairs, st.lists(st.tuples(int_maps_uv, int_maps_uv),
                                min_size=1, max_size=4))
@settings(max_examples=40)
def test_mul_packed_sums_under_every_shear(q, uv, pairs):
    # products on different origins summed on one box, and a pair with its
    # negative, which cancels to zero
    u, v = uv
    pairs = [({_key(u, v, *k): c for k, c in A.items()},
              {_key(u, v, *k): c for k, c in B.items()}) for A, B in pairs]
    A, B = pairs[0]
    with mock.patch.object(_kernels_py, "SHEARS", (q,)):
        assert _kernels_py.mul_packed([pairs], u, v) == [_sum_naive(pairs)]
        negated = {k: -c for k, c in A.items()}
        assert _kernels_py.mul_packed([[(A, B), (negated, B)]], u,
                                      v) == [{}]


@pytest.mark.parametrize("q", _kernels_py.SHEARS)
@given(variable_pairs, st.lists(int_maps_uv, min_size=1, max_size=4),
       st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=4), min_size=1, max_size=4))
@settings(max_examples=40)
def test_mul_packed_several_sums_share_their_operands(q, uv, pool, sums):
    # several sums drawn from one pool of operands, an operand met in
    # several pairs and sums: each sum comes out as the naive one, and each
    # distinct operand is packed once
    u, v = uv
    pool = [{_key(u, v, *k): c for k, c in X.items()} for X in pool]
    sums = [[(pool[i % len(pool)], pool[j % len(pool)]) for i, j in pairs]
            for pairs in sums]
    with mock.patch.object(_kernels_py, "SHEARS", (q,)), \
            mock.patch.object(_kernels_py, "_pack",
                              wraps=_kernels_py._pack) as pack:
        got = _kernels_py.mul_packed(sums, u, v)
    assert got == [_sum_naive(pairs) for pairs in sums]
    assert pack.call_count == len({id(X) for pairs in sums
                                   for pair in pairs for X in pair})


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("terms, coeff, bits", [(7, 4681, 15), (5, 13107, 16),
                                                (7, (2 ** 63 - 1) // 7, 63),
                                                (1, 2 ** 64 - 1, 64)])
@pytest.mark.parametrize("q", _kernels_py.SHEARS)
def test_mul_packed_slot_at_the_bound(sign, terms, coeff, bits, q):
    # max|A| max|B| min(len A, len B) = 2^bits - 1, and the cell (terms - 1)
    # of the product reaches it: 2^15 - 1 and 2^63 - 1 fill their bytes
    # with the sign bit, 2^16 - 1 and 2^64 - 1 need another byte for it;
    # the slots below and above it hold smaller values of both signs
    A = {_key(1, 2, 0, c): sign * coeff for c in range(terms)}
    A[_key(1, 2, 1, 0)] = -sign * coeff
    B = {_key(1, 2, 0, c): 1 for c in range(terms)}
    assert coeff * terms == 2 ** bits - 1
    with mock.patch.object(_kernels_py, "SHEARS", (q,)):
        P, = _kernels_py.mul_packed([[(A, B)]], 1, 2)
    assert P == naive_product(A, B)
    assert P[_key(1, 2, 0, terms - 1)] == sign * (2 ** bits - 1)


def test_mul_packed_slot_cancels():
    # (1 + l)(1 + s) (1 - l)(1 + s) = (1 - l^2)(1 + s)^2: the l^1 slots
    # cancel and must not be stored
    A = {_sl(0, 0): 1, _sl(0, 1): 1, _sl(1, 0): 1, _sl(1, 1): 1}
    B = {_sl(0, 0): 1, _sl(0, 1): -1, _sl(1, 0): 1, _sl(1, 1): -1}
    P, = _kernels_py.mul_packed([[(A, B)]], 1, 2)
    assert P == naive_product(A, B) == {
        _sl(0, 0): 1, _sl(1, 0): 2, _sl(2, 0): 1, _sl(0, 2): -1,
        _sl(1, 2): -2, _sl(2, 2): -1}


def test_mul_packed_picks_the_smallest_box():
    # terms along l = s: the shear q = 1 puts the product on one m, so the
    # packed operands are a few slots long, however long the band
    A = {_sl(a, a): a + 1 for a in range(60)}
    B = {_sl(a, a + 1): -a - 2 for a in range(40)}
    with mock.patch.object(_kernels_py, "_pack",
                           wraps=_kernels_py._pack) as pack:
        P, = _kernels_py.mul_packed([[(A, B)]], 1, 2)
    assert P == naive_product(A, B)
    assert {call.args[3:5] for call in pack.call_args_list} == {(1, 1)}


def test_only_sums_of_products_packs_a_large_banded_product():
    # 60 x 40 terms along l ~ 1.4 s: at least PACK_PAIRS pairs in two
    # variables, which `mul_poly` multiplies by the pair loop either way
    # round, and `sums_of_products` of the same pair by `mul_packed`
    A = _band(1, 2, 20, 1.4, 3, lambda: -(2 ** 70) + 3)
    B = _band(1, 2, 20, 1.4, 2, lambda: 2 ** 40 + 1)
    assert len(A) * len(B) >= polyring.PACK_PAIRS
    assert _poly_path(A, B) == (naive_product(A, B), False)
    assert _poly_path(B, A) == (naive_product(A, B), False)
    with mock.patch.object(polyring, "mul_packed",
                           wraps=polyring.mul_packed) as packed:
        P, = polyring.sums_of_products([[(Poly(A), Poly(B))]])
    assert packed.call_count == 1
    assert P.terms == naive_product(A, B)


@given(st.one_of(big_ints, coeffs), st.tuples(*[st.integers(0, 4)] * 6),
       st.one_of(int_maps6, maps6))
@settings(max_examples=60)
def test_mul_poly_by_one_term_shifts_and_scales(c, e, B):
    # a one-term operand, small or large, on either side, never packed
    A = {e: c}
    assert _poly_path(A, B) == (naive_product(A, B), False)
    assert _poly_path(B, A) == (naive_product(A, B), False)


def test_mul_poly_by_one_term_keeps_ints():
    P = mul_poly({_sl(0, 1): 3}, {_sl(2, 0): -(2 ** 80), _sl(0, 0): 7})
    assert P == {_sl(2, 1): -3 * 2 ** 80, _sl(0, 1): 21}
    assert all(type(c) is int for c in P.values())


# -- the slot reader of both packers -----------------------------------------
#
# A sum of slots v_i 2^(i w), |v_i| < 2^(w-1), is read back through a bias
# word of 2^(w-1) per slot; a negative slot borrows from the ones above it
# in the int, and the reader must give every slot back exactly.


def _slots(nb: int):
    """(nb, slot values) with every |v| <= 2^(8 nb - 1) - 1; the extremes,
    +-1 and 0 are drawn often, which gives runs of negative slots, a
    negative top slot and exact zeros between nonzero slots."""
    top = 2 ** (8 * nb - 1) - 1
    slot = st.one_of(st.integers(-top, top),
                     st.sampled_from([top, -top, 1, -1, 0]))
    return st.tuples(st.just(nb), st.lists(slot, min_size=1, max_size=12))


@given(st.integers(1, 5).flatmap(_slots), st.integers(-2 ** 80, 2 ** 80))
@example((1, [-1] * 8), 0)
@example((5, [-(2 ** 39 - 1)] * 5), 0)
@example((2, [1, -1, 0, 0, -1]), -1)
@example((2, [3, 0, 0, -(2 ** 15 - 1)]), 0)
@example((3, [2 ** 23 - 1, 0, -1, 0, 2 ** 23 - 1, -(2 ** 23 - 1)]), 1)
@example((4, [0, 0, -(2 ** 31 - 1)]), 0)
@example((1, [0]), -1)
@settings(max_examples=150)
def test_read_slots_round_trip(slots, high):
    # w = 8 nb from 8 to 40 bits: sum v_i 2^(i w) reads back exactly, and
    # the slots from n up are ignored
    nb, vals = slots
    n, w = len(vals), 8 * nb
    x = sum(v << (i * w) for i, v in enumerate(vals))
    want = [(i, v) for i, v in enumerate(vals) if v]
    assert _kernels_py._read_slots(x, n, nb) == want
    assert _kernels_py._read_slots(x + (high << (n * w)), n, nb) == want
