"""Existence test for even lattices with prescribed signature and form.

An even lattice of signature (r, s) with discriminant form q exists if and
only if, at every prime p dividing twice the signed determinant
d = (-1)^s |D|, some p-adic lattice of rank n = r + s realizes the p-part
of q with reduced discriminant matching the unit part of d, and the
excesses can be chosen to satisfy the global relation
r - s + sum_p excess_p = n mod 8.  No witness lattice is ever built.

Every set of excesses here is a subset of Z/8, held as an 8-bit mask
with bit e set when excess e can occur.  The decision is split in two.
Per form, once: for each such prime p, the square classes of +-delta_p
(delta_p the unit part of |D| at p), the least number l_p of generators
of q_p and, per reduced discriminant, the mask of the excesses of rank-l_p
lattices with form q_p.  None of this depends on (r, s).  Per question: a
rank-n lattice is a rank-l_p one plus a unimodular complement of rank
n - l_p, whose invariant pairs take at most two values (e_u, u_u), so the
mask of the excesses matching the wanted class want = (-1)^s delta_p is
the OR over those pairs of the rank-l_p mask for reduced discriminant
want * u_u mod 8, rotated by e_u.  Square classes are the residues mod 8
of exact_linalg, each its own inverse, so that product is the class the
rank-l_p part must have.  The possible sums of one excess per prime are
the cyclic convolution of the primes' masks, and the answer is its bit
n - r + s mod 8.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import prime_factors, square_class
from .fqf import FiniteQuadraticForm, group_order, p_part
from .local_invariants import minimal_rank_set, unimodular_set

#: Per prime p | 2|D|: (p, classes of +-delta_p, l_p, {reddisc: mask}),
#: every square class a residue mod 8 and every mask an 8-bit set of
#: excesses.
LocalData = tuple[tuple[int, tuple[int, int], int, dict[int, int]], ...]


def exists_even_lattice(r: int, s: int, q: FiniteQuadraticForm) -> bool:
    """Whether an even lattice of signature (r, s) with form q exists.

    r and s must be nonnegative with n = r + s positive.  The p = 2 local
    condition is checked even when the determinant is odd (the 2-part of q
    is then trivial), since the rank constraint mod 8 lives there.
    """
    if r < 0 or s < 0:
        raise ValueError("signature counts must be nonnegative")
    n = r + s
    if n == 0:
        raise ValueError("rank must be positive")
    # sums: bit t set when the excesses of the primes so far can add up to
    # t mod 8; the empty sum is 0.
    sums = 1
    for p, wants, l, masks in _local_data(q):
        if n < l:
            return False
        want = wants[s % 2]
        choices = 0
        for e_u, u_u in unimodular_set(p, n - l):
            mask = masks.get(want * u_u % 8, 0)
            choices |= (mask << e_u | mask >> (8 - e_u)) & 0xFF
        if not choices:
            return False
        sums = _convolve8(sums, choices)
    return bool(sums >> (n - r + s) % 8 & 1)


def _convolve8(a: int, b: int) -> int:
    """Cyclic convolution of two 8-bit masks: the mask of the sums
    (x + y) mod 8 with bit x set in a and bit y set in b.

    One rotation of a per set bit low = 2^y of b: with a written twice
    over 16 bits, a rotation by y is a shift left by y and right by 8.
    """
    doubled = a * 0x101
    out = 0
    while b:
        low = b & -b
        out |= doubled * low >> 8
        b ^= low
    return out & 0xFF


@lru_cache(maxsize=None)
def _local_data(q: FiniteQuadraticForm) -> LocalData:
    """The part of the decision that depends on q alone (see above)."""
    order = group_order(q)
    data = []
    for p in sorted(set([2] + prime_factors(order))):
        delta = order
        while delta % p == 0:
            delta //= p
        l, base = minimal_rank_set(p, p_part(q, p))
        masks: dict[int, int] = {}
        for e, u in base:
            masks[u] = masks.get(u, 0) | 1 << e
        data.append((p, (square_class(delta, p), square_class(-delta, p)), l,
                     masks))
    return tuple(data)
