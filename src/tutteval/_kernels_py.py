"""The sparse multiplication kernels.

`mul_poly` and `mul_trunc2` carry the products of every verification run;
`mul_trunc2` also multiplies the Laurent series with a formal log 2.
`mul_trunc3` is left to `Series3` products, which only the tests make: the
one `Series3` the program makes, the relation series, is written down
coefficient by coefficient.  Every kernel takes maps to `int`s, which
multiply several times faster than rationals: `Poly` and series products
clear denominators first, and `polyring.sums_of_products` packs only maps
to `int`s.  A product takes one of three routes.

The pair loop, in `mul_poly`, multiplies term pair by term pair.  Each
exponent tuple is read as one mixed-radix index over the product's exponent
box, whose extent in variable i is max_A e_i + max_B e_i + 1, so a product
key is a single integer add and no digit carries into the next.  It serves
every product of two polynomials, and the truncated products: `mul_trunc3`,
and `mul_trunc2` on rows of mostly single terms, are `mul_poly`'s product
cut to their caps.
The first exponent of a truncated product's key may be negative, as in a
Laurent series; it is shifted to 0 before the product and back after it.

The lambda-row packer, `_mul_rows`, multiplies the dense int operands of
`mul_trunc2` by whole lambda-rows (Kronecker substitution; D. Harvey, J.
Symb. Comput. 44, 2009).  The terms of one s-exponent b become one int,
sum_c v_c 2^(c w), so a product of two rows is one int product whose slot c
holds the row product's lambda^c coefficient.  Only row pairs with
b1 + b2 <= S are multiplied, their products are summed per output row, and
each row's L + 1 low slots are read.

The sheared packer, `mul_packed`, multiplies whole two-variable polynomials
the same way, on a sheared box, for `polyring.sums_of_products` alone (see
also J. van der Hoeven and G. Lecerf, J. Symb. Comput. 50, 2013, on sparse
products by packing).  The holonomic
tower's polynomials in (s, lambda) lie in a band along lambda ~ 1.4 s,
which fills only a small part of their exponent box.  In the coordinates
(a, m) = (e_u, e_v - q e_u) the band lies nearly flat, and the box of the
product shrinks with it: the largest product of `verify holonomic`, 171 by
282 terms with 846 output terms, has 3,082 cells at q = 0 and 1,150 at
q = 1.  Of a small set of shears, the one with the fewest values of m is
taken.  A term (a, m) of an operand gets the slot (a - a0) E + m - m0, with
E the products' extent in m and (a0, m0) the least a and m of the operand.
As a and m add under products, so does the slot, and as 0 <= m - m0 < E
over the product, no two cells of the product share one.  An operand is
written into byte buffers over its own span, one for the positive and one
for the negative values, and becomes one int w bits per slot; the product
of two such ints holds the product polynomial slot by slot.  It is shifted
to the origin of a box common to the pairs of its sum, so several products
are summed as ints and read once.  One call takes several such sums over
one pool of operands, as the minors of one size or the phi-powers of a
`PhiQuot` sum do: they share the shear, E and w, so an operand that several
pairs meet, in one sum or in several, is packed once, and each sum is
decoded once.  The shear is read off each operand's row extremes, its least
and greatest exponent of v at each exponent of u.

Both packers size and read their slots the same way.  No slot of a sum of
products A B exceeds, in absolute value, the sum over the pairs of
max|A| max|B| min(len A, len B), since a target cell meets at most one term
of either operand per term of the other; w is that bound's bit length plus
a sign bit, rounded up to whole bytes (`_slot_bytes`), and the largest such
w over the sums of one call.  `_read_slots` adds a bias word of 2^(w-1)
per slot, which makes every slot nonnegative, so no slot borrows from the
next; each slot reads as its digit less 2^(w-1), and a slot equal to the
bias holds 0 and is skipped.

Exact division packs nothing: `polyring.poly_div_exact` long-divides on the
pair loop's mixed-radix index over its dividend's box.
"""

from itertools import chain, product
from operator import add, mul

# the shears q of `mul_packed`: cold `verify holonomic` took 0.44-0.46 s
# with these (least of 5 runs; CPython 3.11, 2 cores), 0.71 s with q = 0
# alone, and as long with (0, 1) or (0, 1, 2, 3)
SHEARS = (0, 1, 2)


def mul_trunc3(A, B, D, L):
    """Product of two {(a,b,c): coeff} maps, truncated to a+2b <= D, c <= L."""
    return {k: v for k, v in mul_poly(A, B).items()
            if k[0] + 2 * k[1] <= D and k[2] <= L}


def mul_trunc2(A, B, S, L):
    """Product of two {(b,c): coeff} maps, truncated to b <= S, c <= L.

    When both operands have at least three terms per two lambda-rows, the
    rows are multiplied packed (see the module doc); otherwise `mul_poly`'s
    product is cut to the caps.  A one-term operand, a series truncated to
    lambda^0 and rows of mostly single terms take `mul_poly`: there a row
    product is little more than a term product, and the packing and
    unpacking would come on top.  Measured on the 427 calls of one
    `series-sweep` round, each call timed alone (best of 5; CPython 3.11,
    2 cores): 0.136 s term pair by term pair on every call, 0.030 s packed
    on every call and 0.026 s with this switch, which is as fast at any
    threshold from just above one to 1.5 terms per row, and takes 0.028 s
    at two."""
    rows_a = {b for b, _ in A}
    rows_b = {b for b, _ in B}
    if (0 < 3 * len(rows_a) <= 2 * len(A)
            and 0 < 3 * len(rows_b) <= 2 * len(B)):
        return _mul_rows(A, B, S, L)
    # `mul_poly` indexes exponents from 0: a Laurent series' s-exponents
    # move up by -lo in each operand, and the product's down by -2 lo
    lo = min(rows_a | rows_b | {0})
    if lo:
        A, B = ({(b - lo, c): v for (b, c), v in X.items()} for X in (A, B))
    return {(b + 2 * lo, c): v for (b, c), v in mul_poly(A, B).items()
            if b + 2 * lo <= S and c <= L}


def _slot_bytes(pairs) -> int:
    """Bytes per slot for the sum of the products A B over `pairs`: the
    bound sum max|A| max|B| min(len A, len B) and a sign bit (see the
    module doc)."""
    bound = sum(max(map(abs, A.values())) * max(map(abs, B.values()))
                * min(len(A), len(B)) for A, B in pairs)
    return (bound.bit_length() + 8) // 8


def _read_slots(x: int, n: int, nb: int) -> list:
    """[(i, v_i)] over the nonzero v_i, i < n, of x = sum_i v_i 2^(8 nb i)
    with every |v_i| < 2^(8 nb - 1), read through a bias word (see the
    module doc); the slots from n up are ignored."""
    bias = bytes(nb - 1) + b"\x80"
    size = n * nb
    data = ((x + int.from_bytes(bias * n, "little"))
            & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    half = 1 << (8 * nb - 1)
    return [(i, int.from_bytes(cell, "little") - half)
            for i, j in enumerate(range(0, size, nb))
            if (cell := data[j:j + nb]) != bias]


def _pack_rows(A, w: int) -> dict:
    """{b: sum_c v_c 2^(c w)} over the terms (b, c): v of an int map."""
    rows = {}
    get = rows.get
    for (b, c), v in A.items():
        rows[b] = get(b, 0) + (v << (c * w))
    return rows


def _mul_rows(A, B, S, L):
    """`mul_trunc2` on packed lambda-rows, for nonempty maps to ints."""
    nb = _slot_bytes([(A, B)])
    rows_b = sorted(_pack_rows(B, 8 * nb).items())
    acc = {}
    get = acc.get
    for b1, x in _pack_rows(A, 8 * nb).items():
        for b2, y in rows_b:
            b = b1 + b2
            if b > S:
                break
            acc[b] = get(b, 0) + x * y
    return {(b, c): v for b, x in acc.items()
            for c, v in _read_slots(x, L + 1, nb)}


def two_variables(maps):
    """(u, v), u < v, when no key of any map has a nonzero exponent outside
    the variables u and v; else None.  With fewer than two variables in
    use, the others are filled in from the lowest index."""
    used = set()
    for A in maps:
        used.update(i for i, col in enumerate(zip(*A)) if any(col))
        if len(used) > 2:
            return None
    n = len(next(iter(maps[0])))
    pick = sorted(used) + [i for i in range(n) if i not in used]
    return tuple(sorted(pick[:2])) if n >= 2 else None


def _pack(a_col, b_col, values, q, ext, nb):
    """(sum_j v_j 2^(8 nb i_j), a0, m0) for the terms (a_j, b_j): v_j, with
    i_j = (a_j - a0) ext + m_j - m0 and m_j = b_j - q a_j, over the terms'
    own span.  The positive and the negative values go through one byte
    buffer each."""
    m_col = [b - q * a for a, b in zip(a_col, b_col)]
    a0, m0 = min(a_col), min(m_col)
    size = ((max(a_col) - a0) * ext + max(m_col) - m0 + 1) * nb
    pos = bytearray(size)
    neg = None
    for a, m, v in zip(a_col, m_col, values):
        i = ((a - a0) * ext + m - m0) * nb
        if v > 0:
            pos[i:i + nb] = v.to_bytes(nb, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[i:i + nb] = (-v).to_bytes(nb, "little")
    x = int.from_bytes(pos, "little")
    if neg is not None:
        x -= int.from_bytes(neg, "little")
    return x, a0, m0


def _rows(X, u, v) -> tuple:
    """(a_col, b_col, lows, highs) of a map whose keys vanish outside u and
    v: its columns of exponents a of u and b of v, and the least and the
    greatest b of each row a as (a, b) pairs."""
    a_col = [k[u] for k in X]
    b_col = [k[v] for k in X]
    cells = sorted(zip(a_col, b_col))
    return a_col, b_col, dict(reversed(cells)).items(), dict(cells).items()


def mul_packed(sums, u, v):
    """[sum A B over the pairs of each sum] for `sums`, lists of pairs of
    nonempty maps to ints whose keys vanish outside the variables u < v:
    one int product per pair on one sheared Kronecker box, shifted to its
    sum's origin, summed and decoded once per sum (see the module doc).

    The sums share one shear, one m-extent and one slot width, so an
    operand met in several pairs, of one sum or of several, is packed once;
    operands are told apart by identity.  The shear is read off each
    operand's row extremes, its least and greatest b for each a."""
    by_id = {id(X): X for pairs in sums for X in chain.from_iterable(pairs)}
    ops = {key: _rows(X, u, v) for key, X in by_id.items()}
    prods = [[(id(A), id(B)) for A, B in pairs] for pairs in sums]
    # the shear q that gives the sums the fewest values of m = e_v - q e_u,
    # from the m-range of each operand
    best = None
    for q in SHEARS:
        span = {key: (min(b - q * a for a, b in lows),
                      max(b - q * a for a, b in highs))
                for key, (_, _, lows, highs) in ops.items()}
        lo = min(span[x][0] + span[y][0] for ps in prods for x, y in ps)
        hi = max(span[x][1] + span[y][1] for ps in prods for x, y in ps)
        if best is None or hi - lo < best[2] - best[1]:
            best = q, lo, hi
    q, mlo, mhi = best
    ext = mhi - mlo + 1
    nb = max(map(_slot_bytes, sums))
    w = 8 * nb
    packed = {}
    for key, (a_col, b_col, _, _) in ops.items():
        packed[key] = (*_pack(a_col, b_col, by_id[key].values(), q, ext, nb),
                       max(a_col))
    del ops
    # each sum shifted to the origin (alo, mlo) of its box: the slot j holds
    # the cell (a, b) with j = (a - alo) ext + m - mlo and m = b - q a
    boxes = []
    for ps in prods:
        alo = min(packed[x][1] + packed[y][1] for x, y in ps)
        ahi = max(packed[x][3] + packed[y][3] for x, y in ps)
        total = 0
        for x, y in ps:
            (x, a1, m1, _), (y, a2, m2, _) = packed[x], packed[y]
            total += x * y << ((a1 + a2 - alo) * ext + m1 + m2 - mlo) * w
        boxes.append((total, alo, ahi))
    del packed
    out = []
    key = [0] * len(next(iter(sums[0][0][0])))
    for total, alo, ahi in boxes:
        res = {}
        for j, s in _read_slots(total, (ahi - alo + 1) * ext, nb):
            da, m = divmod(j, ext)
            key[u] = alo + da
            key[v] = mlo + m + q * key[u]
            res[tuple(key)] = s
        out.append(res)
    return out


def mul_poly(A, B):
    """Untruncated product of two {exponent-tuple: coeff} maps.

    A one-term operand shifts and scales the other.  Otherwise each
    exponent tuple is read as one mixed-radix index over the product's
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
    if len(A) == 1:
        (e, c), = A.items()
        if not c:
            return {}
        return {tuple(map(add, k, e)): c * x for k, x in B.items() if x}
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
