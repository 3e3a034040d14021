"""The sparse multiplication inner loops.

These three routines dominate the runtime of every large verification run.
Coefficients are any exact numbers (`int` or `Fraction`).  `Poly` and
`Series2` products clear denominators first, so `mul_poly` and `mul_trunc2`
run on `int`s, which multiply several times faster.
"""

import struct
from itertools import product
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
    """Product of two {(b,c): coeff} maps, truncated to b <= S, c <= L."""
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
