"""Tutte's series three ways: closed form, algebraic equation, and Tamari
interval enumeration.

The series tau(lambda) = lambda + 3 lambda^2 + 13 lambda^3 + ... has
i-th coefficient 2(4i+1)!/((i+1)!(3i+2)!), which also counts the intervals
of the Tamari lattice on binary trees with i internal nodes.  Algebraically,
tau = phi(1 - phi - phi^2) where phi is the power series root of
phi = lambda (1 + phi)^4.  Each route is implemented independently so the
verifier can cross-check them.
"""

from __future__ import annotations

import time
from math import comb, factorial

from .exactnum import Rat
from .report import Report, failed, inconclusive, passed
from .series import Series2

TAMARI_MAX = 6  # Catalan(6) = 132 trees; enumeration is instant up to here


def tutte_coeff(i: int):
    """Closed form 2(4i+1)!/((i+1)!(3i+2)!) as an exact (integer) rational."""
    if i < 1:
        raise ValueError(f"tutte_coeff needs i >= 1, got {i}")
    return Rat(2 * factorial(4 * i + 1),
               factorial(i + 1) * factorial(3 * i + 2))


def phi_series(L: int) -> Series2:
    """The unique zero-constant series with phi = lambda (1+phi)^4, to
    lambda-order L, from the functional equation alone.  With
    w = (1+phi)^4, phi_(n+1) = w_n, and J. C. P. Miller's recurrence for a
    power of a series with constant term 1 (Knuth, TAOCP vol. 2, 4.7)
    gives n w_n = sum_{k=1..n} (5k - n) phi_k w_(n-k), all on ints.
    Raises ArithmeticError if a division by n is not exact."""
    if L < 1:
        raise ValueError(f"phi_series needs L >= 1, got {L}")
    phi = [0]
    w = [1]
    for n in range(1, L):
        phi.append(w[-1])
        q, r = divmod(sum((5 * k - n) * phi[k] * w[n - k]
                          for k in range(1, n + 1)), n)
        if r:
            raise ArithmeticError("phi recurrence is not integral")
        w.append(q)
    phi.append(w[-1])
    return Series2({(0, n): v for n, v in enumerate(phi) if v}, 0, L)


def phi_coeff_lagrange(n: int):
    """Independent oracle: [lambda^n] phi = (1/n) C(4n, n-1)."""
    return Rat(comb(4 * n, n - 1), n)


def tau_from_phi(L: int) -> Series2:
    """tau = phi (1 - phi - phi^2), truncated at lambda-order L."""
    phi = phi_series(L)
    return phi * (1 - phi - phi * phi)


def tau_series(L: int) -> Series2:
    """tau from the closed-form coefficients (the verifier's other route)."""
    return Series2({(0, i): tutte_coeff(i) for i in range(1, L + 1)}, 0, L)


# -- Tamari lattice enumeration --------------------------------------------
#
# Binary trees are nested tuples: None is a leaf, (left, right) an internal
# node.  The canonical encoding of a tree is the tuple itself, which is
# unique per shape, so each lattice element is its own certificate.


def binary_trees(i: int):
    """All binary trees with i internal nodes (Catalan(i) of them)."""
    if i == 0:
        return [None]
    out = []
    for k in range(i):
        for left in binary_trees(k):
            for right in binary_trees(i - 1 - k):
                out.append((left, right))
    return out


def right_rotations(tree):
    """Trees covering `tree`: one left-to-right rotation
    ((A ^ B) ^ C  ->  A ^ (B ^ C)) applied at a single node."""
    if tree is None:
        return
    left, right = tree
    if left is not None:
        a, b = left
        yield (a, (b, right))
    for t in right_rotations(left):
        yield (t, right)
    for t in right_rotations(right):
        yield (left, t)


def _tamari_closure(i: int):
    """(trees, reach) where reach[j] is the bitset of elements >= tree j."""
    trees = binary_trees(i)
    index = {t: j for j, t in enumerate(trees)}
    succ = [[index[u] for u in right_rotations(t)] for t in trees]
    n = len(trees)
    reach = [0] * n
    # reverse topological pass: rotations strictly increase the order, so
    # iterate until stable (the poset is tiny)
    for j in range(n):
        reach[j] = 1 << j
    changed = True
    while changed:
        changed = False
        for j in range(n):
            acc = reach[j]
            for k in succ[j]:
                acc |= reach[k]
            if acc != reach[j]:
                reach[j] = acc
                changed = True
    return trees, reach


def tamari_interval_count(i: int) -> int:
    """Number of ordered pairs x <= y in the Tamari lattice on binary trees
    with i internal nodes, by explicit reachability closure."""
    if not 1 <= i <= TAMARI_MAX:
        raise ValueError(f"tamari_interval_count supports 1 <= i <= {TAMARI_MAX}")
    _, reach = _tamari_closure(i)
    return sum(r.bit_count() for r in reach)


def three_way_report(max_i: int = 6, tamari_max: int = TAMARI_MAX) -> Report:
    """Cross-check the three independent routes to the sequence: closed-form
    coefficients, lambda-coefficients of phi(1 - phi - phi^2), and Tamari
    interval counts.  All three must meet on at least one i, so a Tamari
    range that is empty, or beyond what the enumeration supports, gives an
    inconclusive report."""
    t0 = time.perf_counter()
    params = {"max_i": max_i, "tamari_max": tamari_max}
    if max_i < 1:
        return inconclusive("tutte_three_way", params,
                            f"max_i {max_i} leaves no coefficient to "
                            "compare; need max_i >= 1", 0, t0)
    if not 1 <= tamari_max <= TAMARI_MAX:
        return inconclusive("tutte_three_way", params,
                            f"tamari_max {tamari_max} is outside 1..TAMARI_MAX"
                            f" = {TAMARI_MAX}: no Tamari interval count to "
                            "compare", 0, t0)
    tau = tau_from_phi(max_i)
    cases = 0
    for i in range(1, max_i + 1):
        closed = tutte_coeff(i)
        alg = tau.coeff(0, i)
        if closed != alg:
            return failed("tutte_three_way", params,
                          f"i={i}: closed form {closed}, algebraic {alg}",
                          cases, t0)
        cases += 1
    for i in range(1, min(max_i, tamari_max) + 1):
        count = tamari_interval_count(i)
        if Rat(count) != tutte_coeff(i):
            return failed("tutte_three_way", params,
                          f"i={i}: Tamari count {count}, "
                          f"closed form {tutte_coeff(i)}", cases, t0)
        cases += 1
    return passed("tutte_three_way", params, cases, t0)


def lagrange_report(n_max: int) -> Report:
    """The coefficients of `phi_series`, from the functional equation by
    Miller's power recurrence, against the Lagrange-inversion closed form
    (1/n) C(4n, n-1)."""
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    if n_max < 1:
        return inconclusive("phi_lagrange", params,
                            f"n_max {n_max} leaves no coefficient to compare; "
                            "need n_max >= 1", 0, t0)
    phi = phi_series(n_max)
    cases = 0
    for n in range(1, n_max + 1):
        if phi.coeff(0, n) != phi_coeff_lagrange(n):
            return failed("phi_lagrange", params,
                          f"n={n}: series {phi.coeff(0, n)}, "
                          f"closed form {phi_coeff_lagrange(n)}", cases, t0)
        cases += 1
    return passed("phi_lagrange", params, cases, t0)

