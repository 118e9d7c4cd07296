"""Existence test for even lattices with prescribed signature and form.

An even lattice of signature (r, s) with discriminant form q exists if and
only if, at every prime p dividing twice the signed determinant
d = (-1)^s |D|, some p-adic lattice of rank n = r + s realizes the p-part
of q with reduced discriminant matching the unit part of d, and the
excesses can be chosen to satisfy the global relation
r - s + sum_p excess_p = n mod 8.  No witness lattice is ever built.

The decision is split in two.  Per form, once: for each such prime p, the
square classes of +-delta_p (delta_p the unit part of |D| at p), the least
number l_p of generators of q_p and the invariant pairs of rank-l_p
lattices with form q_p, by reduced discriminant.  None of this depends on
(r, s).  Per question: a rank-n lattice is a rank-l_p one plus a
unimodular complement of rank n - l_p, whose invariant pairs take at most
two values (e_u, u_u), so the excesses matching the wanted class
want = (-1)^s delta_p are the e + e_u mod 8 over the rank-l_p pairs with
reduced discriminant want * u_u mod 8.  Square classes are the residues
mod 8 of exact_linalg, each its own inverse, so that product is the class
the rank-l_p part must have.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import prime_factors, square_class
from .fqf import FiniteQuadraticForm, group_order, p_part
from .local_invariants import minimal_rank_set, unimodular_set

#: Per prime p | 2|D|: (p, classes of +-delta_p, l_p, {reddisc: excesses}),
#: every square class a residue mod 8.
LocalData = tuple[tuple[int, tuple[int, int], int,
                        dict[int, frozenset[int]]], ...]


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
    sigmas = []
    for p, wants, l, by_disc in _local_data(q):
        if n < l:
            return False
        want = wants[s % 2]
        choices = set()
        for e_u, u_u in unimodular_set(p, n - l):
            choices.update(
                (e + e_u) % 8 for e in by_disc.get(want * u_u % 8, ()))
        if not choices:
            return False
        sigmas.append(choices)
    return _sum_hits(sigmas, (n - r + s) % 8)


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
        by_disc: dict[int, set[int]] = {}
        for e, u in base:
            by_disc.setdefault(u, set()).add(e)
        data.append((p, (square_class(delta, p), square_class(-delta, p)), l,
                     {u: frozenset(es) for u, es in by_disc.items()}))
    return tuple(data)


def _sum_hits(choice_sets: list[set[int]], target: int) -> bool:
    sums = {0}
    for choices in choice_sets:
        sums = {(a + c) % 8 for a in sums for c in choices}
    return target in sums
