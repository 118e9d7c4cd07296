"""p-adic invariants of even lattices.

Two invariants classify a p-adic lattice up to the data this package
needs: the p-excess (an element of Z/8, called 2-excess at p = 2) and the
reduced discriminant (the square class of the unit part of the
determinant).  Both add up over a Jordan decomposition into scaled unit
blocks and, at p = 2, the even 2x2 blocks U and V (Conway-Sloane,
SPLAG ch. 15).  No lattice is decomposed here: the sets below are read
off the discriminant form, whose splits give the possible blocks.

An invariant pair is a tuple (excess, reddisc) of ints: the excess mod 8
and the square class as exact_linalg encodes it, a residue mod 8.  A set
of pairs is a frozenset of such tuples.

local_invariant_set(p, n, q) returns every pair (excess, reduced
discriminant) realized by a p-adic lattice of rank n whose discriminant
form is the given p-group form q.  It combines the invariant set of a
unimodular complement of rank n - l with the set in the minimal rank l
(minimal_rank_set), which a recursion builds by splitting generators off
the form one or two at a time until the closed rank <= 2 tables apply.
The rank-l set is computed once per (p, q) and does not depend on n.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

from .exact_linalg import square_class
from .fqf import FiniteQuadraticForm, _rescale, form_on_generators

#: The set of the rank-0 lattice, and the identity of star.
IDENTITY = frozenset({(0, 1)})


def _unit_excess_2(nu: int, a: int) -> int:
    """2-excess of the rank-1 block <a * 2^nu>, a odd."""
    if nu % 2 == 0 or a % 8 in (1, 7):
        return (1 - a) % 8
    return (5 - a) % 8


def star(s1: frozenset, s2: frozenset) -> frozenset:
    """Pairwise combination {(e + e', u * u')}, both mod 8; IDENTITY is
    the identity."""
    return frozenset(((e1 + e2) % 8, u1 * u2 % 8)
                     for e1, u1 in s1 for e2, u2 in s2)


@lru_cache(maxsize=None)
def unimodular_set(p: int, k: int) -> frozenset:
    """Invariant pairs of unimodular p-adic lattices of rank k.

    At p = 2 only even unimodular lattices count, so odd ranks give the
    empty set and the reduced discriminant depends on k mod 4 through the
    possible mixes of U and V blocks.
    """
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if k == 0:
        return IDENTITY
    if p != 2:
        return frozenset({(0, 1), (0, 7)})
    if k % 2 == 1:
        return frozenset()
    classes = (1, 5) if k % 4 == 0 else (3, 7)
    return frozenset((k % 8, u) for u in classes)


def _prime_power_exponent(d: int, p: int) -> int:
    nu = 0
    while d % p == 0:
        d //= p
        nu += 1
    if d != 1:
        raise ValueError(f"order is not a power of {p}: not a p-group form")
    return nu


def rank_le2_set(p: int, presentation: FiniteQuadraticForm) -> frozenset:
    """Invariant pairs of p-adic lattices of rank l realizing a rank-l form.

    Closed tables for the two base shapes of the recursion: a cyclic form
    [a/p^nu], and at p = 2 the rank-2 forms (1/2^nu)[[2u, v], [v, 2w]]
    with v odd.  Everything else is rejected.
    """
    orders = presentation.orders
    if len(orders) == 1:
        d = orders[0]
        nu = _prime_power_exponent(d, p)
        a = _rescale(presentation.qs[0], presentation.exp, d)
        if a % p == 0:
            raise ValueError("cyclic form value must have a unit numerator")
        if p != 2:
            if square_class(a, p) == 1:
                return frozenset({((d - 1) % 8, 1)})
            return frozenset({((d - 1 + (4 if nu % 2 else 0)) % 8, 7)})
        residues = {a % 8, (a + 4) % 8} if nu == 1 else {a % 8}
        return frozenset((_unit_excess_2(nu, r), r) for r in residues)
    if len(orders) == 2 and p == 2:
        d = orders[0]
        nu = _prime_power_exponent(d, 2)
        if orders[1] != d:
            raise ValueError("rank-2 table needs equal generator orders")
        e = presentation.exp
        if e // gcd(presentation.bs[0][1], e) != d:
            raise ValueError("rank-2 table needs an odd off-diagonal pairing")
        u = _rescale(presentation.qs[0], e, d)
        w = _rescale(presentation.qs[1], e, d)
        if u % 2 or w % 2:
            raise ValueError("rank-2 table needs even diagonal q numerators")
        if (u // 2) * (w // 2) % 2 == 0:
            return frozenset({(2, 7)})
        if nu % 2 == 0:
            return frozenset({(2, 3)})
        return frozenset({(6, 3)})
    raise ValueError("input outside the rank <= 2 table shapes")


_REC_CACHE: dict = {}
_SET_CACHE: dict = {}


def minimal_rank_set(p: int,
                     q_p: FiniteQuadraticForm) -> tuple[int, frozenset]:
    """(l, set) for the minimal number l of generators of the p-group
    form q_p and all pairs (excess, reddisc) of rank-l p-adic lattices
    with form q_p.

    This is the part of local_invariant_set that does not depend on the
    rank, computed once per (p, q_p).
    """
    key = (p, q_p)
    cached = _SET_CACHE.get(key)
    if cached is not None:
        return cached
    for d in q_p.orders:
        _prime_power_exponent(d, p)
    result = (len(q_p.orders), _split_set(p, q_p))
    _SET_CACHE[key] = result
    return result


def local_invariant_set(p: int, n: int,
                        q_p: FiniteQuadraticForm) -> frozenset:
    """All pairs (excess, reddisc) of rank-n p-adic lattices with form q_p.

    Empty when n is smaller than the minimal number of generators l of the
    group; otherwise the set for a rank-l lattice combined (via star) with
    the unimodular possibilities in rank n - l.
    """
    l, base = minimal_rank_set(p, q_p)
    if n < l:
        return frozenset()
    return star(unimodular_set(p, n - l), base)


def _split_set(p: int, form: FiniteQuadraticForm) -> frozenset:
    """Invariant set in rank exactly l, by recursive generator splitting.

    Any presentation of a p-group form will do, with its generators in
    any order: the set is an invariant of the form.  The top scale is the
    exponent p^n of the group, the largest generator order.  Splits an
    orthogonal rank-1 block when some b(g_i, g_i) pairs at full scale;
    otherwise repairs a top-order generator (odd p) or splits the even
    rank-2 block it spans with its full-scale partner (p = 2).  Every
    check is an integer sum on the scaled pairings.
    """
    key = (p, form)
    cached = _REC_CACHE.get(key)
    if cached is not None:
        return cached
    result = _split_set_uncached(p, form)
    _REC_CACHE[key] = result
    return result


def _split_set_uncached(p, form):
    l = len(form.orders)
    if l == 0:
        return IDENTITY
    if l == 1:
        return rank_le2_set(p, form)
    # Values are stored at the exponent pn, so bs[i][j] pairs at full
    # scale exactly when it is prime to p.
    pn = form.exp
    bs = form.bs
    pivot = next((i for i in range(l) if bs[i][i] % p), None)
    if pivot is not None:
        uinv = pow(bs[pivot][pivot], -1, pn)
        rows = []
        for j in range(l):
            if j == pivot:
                continue
            row = [0] * l
            row[j] = 1
            row[pivot] = -(uinv * bs[pivot][j] % pn)
            if sum(map(mul, bs[pivot], row)) % pn:
                raise RuntimeError("rank-1 split is not orthogonal")
            rows.append(row)
        rank1 = form_on_generators(
            form, [[int(j == pivot) for j in range(l)]])
        rest = form_on_generators(form, rows)
        return star(rank_le2_set(p, rank1), _split_set(p, rest))
    top = form.orders.index(pn)
    partner = next((j for j in range(l) if j != top and bs[top][j] % p),
                   None)
    if partner is None:
        raise ValueError("degenerate form: top generator pairs below full scale")
    if p != 2:
        rows = [[int(i == j) for j in range(l)] for i in range(l)]
        rows[top][partner] = 1
        return _split_set(p, form_on_generators(form, rows))
    u2, v, w2 = bs[top][top], bs[top][partner], bs[partner][partner]
    t = pow(u2 * w2 - v * v, -1, pn)
    rows = []
    for j in range(l):
        if j in (top, partner):
            continue
        s1, s2 = bs[top][j], bs[partner][j]
        row = [0] * l
        row[j] = 1
        row[top] = -(t * (w2 * s1 - v * s2) % pn)
        row[partner] = -(t * (u2 * s2 - v * s1) % pn)
        if (sum(map(mul, bs[top], row)) % pn
                or sum(map(mul, bs[partner], row)) % pn):
            raise RuntimeError("rank-2 split is not orthogonal")
        rows.append(row)
    pair = form_on_generators(
        form, [[int(j == i) for j in range(l)] for i in (top, partner)])
    rest = form_on_generators(form, rows)
    return star(rank_le2_set(2, pair), _split_set(2, rest))
