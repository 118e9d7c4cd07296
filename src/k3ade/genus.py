"""Existence test for even lattices with prescribed signature and form.

An even lattice of signature (r, s) with discriminant form q exists if and
only if, at every prime p dividing twice the signed determinant
d = (-1)^s |D|, some p-adic lattice of rank n = r + s realizes the p-part
of q with reduced discriminant matching the unit part of d, and the
excesses can be chosen to satisfy the global relation
r - s + sum_p excess_p = n mod 8.  No witness lattice is ever built.
"""

from __future__ import annotations

from .exact_linalg import prime_factors, square_class
from .fqf import FiniteQuadraticForm, group_order, p_part
from .local_invariants import local_invariant_set


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
    d = (-1) ** s * group_order(q)
    primes = sorted(set([2] + prime_factors(d)))
    sigmas = []
    for p in primes:
        delta = d
        while delta % p == 0:
            delta //= p
        want = square_class(delta, p)
        local = local_invariant_set(p, n, p_part(q, p))
        choices = {inv.excess for inv in local if inv.reddisc == want}
        if not choices:
            return False
        sigmas.append(choices)
    return _sum_hits(sigmas, (n - r + s) % 8)


def _sum_hits(choice_sets: list[set[int]], target: int) -> bool:
    sums = {0}
    for choices in choice_sets:
        sums = {(a + c) % 8 for a in sums for c in choices}
    return target in sums
