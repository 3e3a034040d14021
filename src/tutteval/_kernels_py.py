"""The sparse multiplication inner loops.

These three routines dominate the runtime of every large verification run.
Coefficients are any exact numbers (`int` or `Fraction`); `mul_poly` is
called on `int`s, which multiply several times faster.
"""

import struct


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

    Each exponent tuple is packed into one int, one field per variable, so
    a product key is a single integer add.  The fields are wide enough for
    the sum of the operands' total degrees, which bounds every exponent of
    the product, so no field carries into the next."""
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    layout = field_struct(len(next(iter(A))),
                          (max(map(sum, A)) + max(map(sum, B))).bit_length())
    pack, size = layout.pack, layout.size
    out = {}
    get = out.get
    bitems = [(int.from_bytes(pack(*eb), "big"), cb) for eb, cb in B.items()]
    for ea, ca in A.items():
        ka = int.from_bytes(pack(*ea), "big")
        for kb, cb in bitems:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    unpack = layout.unpack
    return {unpack(k.to_bytes(size, "big")): v for k, v in out.items() if v}
