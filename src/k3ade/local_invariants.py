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
(minimal_rank_set), which split_masks computes once per (p, q) and which
does not depend on n.

split_masks splits the form into blocks of rank 1 or 2 in one loop over
a mutable copy of its scaled integers (orders, qs, bs), and the closed
tables of rank_le2_set give each block's pairs.  Every value stays at
the exponent P of the form, the largest order, throughout.  Each step
looks at the largest order d left.  Either some g_k pairs with itself
at full scale (denominator d), or else the first generator g_t of order
d pairs at full scale with a partner g_k' (or the form is degenerate).
- A rank-1 block <g_k> is split off by replacing every other g_j by
  g_j + c_j g_k with b(g_j + c_j g_k, g_k) = 0.
- At odd p, g_t + g_k' pairs with itself at full scale, so it replaces
  g_t and the next step splits it off.
- At p = 2, the even rank-2 block <g_t, g_k'> is split off the same way,
  by g_j + c_j g_t + c'_j g_k'.
No step changes the order d_j of a generator, so none is recomputed:
d_j b(g_j, .) = 0 makes b(g_k, g_j) a multiple of 1/d_j, so each shift
coefficient c_j is a multiple of d/d_j and c_j g_k has order dividing
d_j.  Each split is an integer congruence on the remaining rows, checked
at P.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .exact_linalg import square_class
from .fqf import FiniteQuadraticForm, _rescale

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


def rank_le2_set(p: int, e: int, orders: tuple[int, ...],
                 qs: tuple[int, ...],
                 bs: tuple[tuple[int, ...], ...]) -> frozenset:
    """Invariant pairs of p-adic lattices of rank l realizing a rank-l form.

    The form is given by its generator orders and its values scaled by e,
    as a FiniteQuadraticForm stores them at e = exp; e may be any common
    multiple of the orders.  Closed tables for the two block shapes of
    the split: a cyclic form [a/p^nu], and at p = 2 the rank-2 forms
    (1/2^nu)[[2u, v], [v, 2w]] with v odd.  Everything else is rejected.
    """
    if len(orders) == 1:
        d = orders[0]
        nu = _prime_power_exponent(d, p)
        a = _rescale(qs[0], e, d)
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
        if e // gcd(bs[0][1], e) != d:
            raise ValueError("rank-2 table needs an odd off-diagonal pairing")
        u = _rescale(qs[0], e, d)
        w = _rescale(qs[1], e, d)
        if u % 2 or w % 2:
            raise ValueError("rank-2 table needs even diagonal q numerators")
        if (u // 2) * (w // 2) % 2 == 0:
            return frozenset({(2, 7)})
        if nu % 2 == 0:
            return frozenset({(2, 3)})
        return frozenset({(6, 3)})
    raise ValueError("input outside the rank <= 2 table shapes")


#: split_masks' memo: (p, orders, qs, bs) -> {reddisc: excess mask}.
_REC_CACHE: dict = {}
#: minimal_rank_set's memo: (p, form) -> (l, set of pairs).
_SET_CACHE: dict = {}


def minimal_rank_set(p: int,
                     q_p: FiniteQuadraticForm) -> tuple[int, frozenset]:
    """(l, set) for the minimal number l of generators of the p-group
    form q_p and all pairs (excess, reddisc) of rank-l p-adic lattices
    with form q_p.

    This is the part of local_invariant_set that does not depend on the
    rank, computed once per (p, q_p): the masks of split_masks written
    out as pairs.
    """
    key = (p, q_p)
    cached = _SET_CACHE.get(key)
    if cached is not None:
        return cached
    for d in q_p.orders:
        _prime_power_exponent(d, p)
    masks = split_masks(p, q_p.orders, q_p.qs, q_p.bs)
    result = (len(q_p.orders),
              frozenset((e, u) for u, mask in masks.items()
                        for e in range(8) if mask >> e & 1))
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


def split_masks(p: int, orders: tuple[int, ...], qs: tuple[int, ...],
                bs: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """{reddisc: mask} for the rank-l p-adic lattices with a given p-group
    form, the mask an 8-bit int with bit e set when excess e occurs.

    The form is given by its l generator orders, powers of p, and its
    values scaled by the exponent P = max(orders), as a
    FiniteQuadraticForm stores them; the trivial form gives {1: 1}.  The
    dict is the memo's own and must not be changed by the caller.  Any
    presentation will do, with its generators in any order: the result
    is an invariant of the form.  One loop runs on a copy of the
    integers, at P throughout, and splits off one block per step (see
    the module docstring).
    """
    key = (p, orders, qs, bs)
    masks = _REC_CACHE.get(key)
    if masks is not None:
        return masks
    masks = {1: 1}
    pe = max(orders, default=1)
    two_pe = 2 * pe
    q = list(qs)
    b = [list(row) for row in bs]
    live = list(range(len(orders)))
    while live:
        # Every pairing left is killed by the largest order d left, so at
        # P it is a multiple of unit = P/d, and it pairs at full scale
        # (its denominator is d) when it is not a multiple of full.
        d = max(orders[i] for i in live)
        unit = pe // d
        full = unit * p
        if len(live) == 1:
            k = live.pop()
            block = rank_le2_set(p, pe, (d,), (q[k],), ((b[k][k],),))
        elif (k := next((i for i in live if b[i][i] % full), None)) is not None:
            # Rank-1 block <g_k>: g_j + c g_k is orthogonal to g_k.
            live.remove(k)
            rk, qk = b[k], q[k]
            uinv = pow(rk[k] // unit, -1, d)
            for j in live:
                c = -(uinv * (rk[j] // unit) % d)
                if (rk[j] + c * rk[k]) % pe:
                    raise RuntimeError("rank-1 split is not orthogonal")
                q[j] = (q[j] + c * (c * qk + 2 * rk[j])) % two_pe
                rj = b[j]
                for m in live:
                    rj[m] = (rj[m] + c * rk[m]) % pe
            block = rank_le2_set(p, pe, (d,), (qk,), ((rk[k],),))
        else:
            t = next(i for i in live if orders[i] == d)
            rt = b[t]
            k = next((j for j in live if j != t and rt[j] % full), None)
            if k is None:
                raise ValueError(
                    "degenerate form: top generator pairs below full scale")
            rk = b[k]
            if p != 2:
                # g_t + g_k pairs with itself at full scale: the next step
                # splits it off as a rank-1 block, reading only its row.
                q[t] = (q[t] + q[k] + 2 * rt[k]) % two_pe
                for m in live:
                    if m != t:
                        rt[m] = (rt[m] + rk[m]) % pe
                rt[t] = q[t] % pe
                continue
            # Even rank-2 block <g_t, g_k>: g_j + c g_t + c' g_k is
            # orthogonal to both.
            live.remove(t)
            live.remove(k)
            u2, v, w2 = rt[t] // unit, rt[k] // unit, rk[k] // unit
            inv = pow(u2 * w2 - v * v, -1, d)
            qt, qk = q[t], q[k]
            for j in live:
                s1, s2 = rt[j] // unit, rk[j] // unit
                c = -(inv * (w2 * s1 - v * s2) % d)
                c2 = -(inv * (u2 * s2 - v * s1) % d)
                if ((rt[j] + c * rt[t] + c2 * rt[k]) % pe
                        or (rk[j] + c * rk[t] + c2 * rk[k]) % pe):
                    raise RuntimeError("rank-2 split is not orthogonal")
                q[j] = (q[j] + c * c * qt + c2 * c2 * qk
                        + 2 * (c * rt[j] + c2 * rk[j] + c * c2 * rt[k])
                        ) % two_pe
                rj = b[j]
                for m in live:
                    rj[m] = (rj[m] + c * rt[m] + c2 * rk[m]) % pe
            block = rank_le2_set(2, pe, (d, orders[k]), (qt, qk),
                                 ((rt[t], rt[k]), (rk[t], rk[k])))
        out: dict[int, int] = {}
        for e, u in block:
            for r, mask in masks.items():
                r = r * u % 8
                out[r] = out.get(r, 0) | (mask << e | mask >> (8 - e)) & 0xFF
        masks = out
    _REC_CACHE[key] = masks
    return masks
