"""The sparse multiplication inner loops.

`mul_poly` and `mul_trunc2` carry the products of every large verification
run; `mul_trunc2` also multiplies the Laurent series with a formal log 2
and builds the powers behind the relation series, the one `Series3` the
program makes.  `mul_trunc3` is left to `Series3` products, which only the
tests make.  `Poly` and series products clear denominators first, so the kernels
run on `int`s, which multiply several times faster; `Fraction`
coefficients are accepted as well.  The first exponent of a truncated
product's key may be negative, as in a Laurent series.

`mul_trunc2` multiplies whole lambda-rows (Kronecker substitution; D.
Harvey, J. Symb. Comput. 44, 2009).  The terms of one s-exponent b become
one int, sum_c v_c 2^(c w), so a product of two rows is one int product
whose slot c holds the row product's lambda^c coefficient.  No slot of the
truncated product exceeds max|A| max|B| min(len A, len B) in absolute
value, since a target (b, c) meets at most one term of either operand per
term of the other; w is that bound's bit length plus a sign bit, rounded up
to whole bytes.  Only row pairs with b1 + b2 <= S are multiplied, their
products are summed per output row, and the row is cut to its L + 1 low
slots and read through a bias word of 2^(w-1) per slot, which makes every
slot nonnegative, so no slot borrows from the next.  Operands whose rows
hold mostly single terms, and rational ones, are multiplied term pair by
term pair instead (see `mul_trunc2`).
"""

import struct
from itertools import chain, product
from operator import mul


def mul_trunc3(A, B, D, L):
    """Product of two {(a,b,c): coeff} maps, truncated to a+2b <= D, c <= L."""
    if len(A) > len(B):
        A, B = B, A
    out = {}
    get = out.get
    bitems = list(B.items())
    for (a1, b1, c1), ca in A.items():
        for (a2, b2, c2), cb in bitems:
            a = a1 + a2
            b = b1 + b2
            if a + 2 * b > D:
                continue
            c = c1 + c2
            if c > L:
                continue
            k = (a, b, c)
            v = get(k)
            if v is None:
                out[k] = ca * cb
            else:
                out[k] = v + ca * cb
    return {k: v for k, v in out.items() if v}


def mul_trunc2(A, B, S, L):
    """Product of two {(b,c): coeff} maps, truncated to b <= S, c <= L.

    When both operands have int coefficients and at least three terms per
    two lambda-rows, the rows are multiplied packed (see the module doc);
    otherwise term pair by term pair.  A one-term operand, a series
    truncated to lambda^0 and rows of mostly single terms take the pair
    loop: there a row product is little more than a term product, and the
    packing and unpacking would come on top.  Rational coefficients take
    it too.  Measured on the 427 calls of one `series-sweep` round, each
    call timed alone (best of 5; CPython 3.11, 2 cores): 0.136 s with the
    pair loop on every call, 0.030 s packed on every call and 0.026 s with
    this switch, which is as fast at any threshold from just above one to
    1.5 terms per row, and takes 0.028 s at two."""
    rows_a = {b for b, _ in A}
    rows_b = {b for b, _ in B}
    if (0 < 3 * len(rows_a) <= 2 * len(A) and 0 < 3 * len(rows_b) <= 2 * len(B)
            and set(map(type, chain(A.values(), B.values()))) == {int}):
        return _mul_rows(A, B, S, L)
    if len(A) > len(B):
        A, B = B, A
    out = {}
    get = out.get
    bitems = list(B.items())
    for (b1, c1), ca in A.items():
        for (b2, c2), cb in bitems:
            b = b1 + b2
            if b > S:
                continue
            c = c1 + c2
            if c > L:
                continue
            k = (b, c)
            v = get(k)
            if v is None:
                out[k] = ca * cb
            else:
                out[k] = v + ca * cb
    return {k: v for k, v in out.items() if v}


def _pack_rows(A, w: int) -> dict:
    """{b: sum_c v_c 2^(c w)} over the terms (b, c): v of an int map."""
    rows = {}
    get = rows.get
    for (b, c), v in A.items():
        rows[b] = get(b, 0) + (v << (c * w))
    return rows


def _mul_rows(A, B, S, L):
    """`mul_trunc2` on packed lambda-rows, for nonempty maps to ints."""
    bound = (max(map(abs, A.values())) * max(map(abs, B.values()))
             * min(len(A), len(B)))
    nb = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    w = 8 * nb
    rows_b = sorted(_pack_rows(B, w).items())
    acc = {}
    get = acc.get
    for b1, x in _pack_rows(A, w).items():
        for b2, y in rows_b:
            b = b1 + b2
            if b > S:
                break
            acc[b] = get(b, 0) + x * y
    size = (L + 1) * nb
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * (L + 1), "little")
    mask = (1 << (8 * size)) - 1
    half = 1 << (w - 1)
    out = {}
    for b, x in acc.items():
        row = ((x + bias) & mask).to_bytes(size, "little")
        for c in range(L + 1):
            v = int.from_bytes(row[c * nb:(c + 1) * nb], "little") - half
            if v:
                out[(b, c)] = v
    return out


def field_struct(nfields: int, bits: int) -> struct.Struct:
    """Big-endian layout of nfields unsigned fields of at least `bits` bits
    each (1, 2, 4 or 8 bytes).  It packs an exponent tuple e into one int,
    int.from_bytes(layout.pack(*e), "big"), and unpacks the int k as
    layout.unpack(k.to_bytes(layout.size, "big"))."""
    for code in "BHIQ":
        if bits <= 8 * struct.calcsize(code):
            return struct.Struct(f">{nfields}{code}")
    raise OverflowError(f"exponents of {bits} bits cannot be packed")


def mul_poly(A, B):
    """Untruncated product of two {exponent-tuple: coeff} maps.

    Each exponent tuple is read as one mixed-radix index over the product's
    exponent box, whose extent in variable i is max_A e_i + max_B e_i + 1,
    so a product key is a single integer add and no digit carries into the
    next.  When the box has no more cells than there are term pairs, the
    products accumulate into a flat list over the box, which costs no more
    to allocate than the loop does to fill; otherwise into a dict keyed by
    the same index."""
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    ext = [x + y + 1 for x, y in zip(map(max, zip(*A)), map(max, zip(*B)))]
    w = [1] * len(ext)  # w[i] = ext[i+1] * ... * ext[-1], lex order
    for i in range(len(ext) - 1, 0, -1):
        w[i - 1] = w[i] * ext[i]
    aitems = [(sum(map(mul, e, w)), c) for e, c in A.items()]
    bitems = [(sum(map(mul, e, w)), c) for e, c in B.items()]
    if w[0] * ext[0] <= len(A) * len(B):
        acc = [0] * (w[0] * ext[0])
        for ka, ca in aitems:
            for kb, cb in bitems:
                acc[ka + kb] += ca * cb
        # the box's cells in index order are its exponent tuples in lex order
        return {e: v for e, v in zip(product(*map(range, ext)), acc) if v}
    out = {}
    get = out.get
    for ka, ca in aitems:
        for kb, cb in bitems:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    # decode the indices one variable at a time, and only the variables
    # some term uses: the others are 0 in every key
    keys = [k for k, v in out.items() if v]
    zeros = [0] * len(keys)
    cols = [[k // wi % ei for k in keys] if ei > 1 else zeros
            for wi, ei in zip(w, ext)]
    return dict(zip(zip(*cols), map(out.__getitem__, keys)))
