"""The recursive Jordan split on presented forms, for the tests.

_split_set splits one or two generators off a p-group form per step and
recurses on the rest, presenting every block and every rest as a new
FiniteQuadraticForm through form_on_generators, which recomputes the
generator orders and moves the values to the new exponent.  It is the
reference for local_invariants.split_masks, which runs the same splits
in place on the scaled integers at a fixed exponent; the two give the
same invariant pairs and raise the same ValueErrors.  DEGENERATE lists
forms on which they raise.
"""

from fractions import Fraction as F
from math import gcd
from operator import mul

from fraction_views import make_form
from k3ade.exact_linalg import square_class
from k3ade.fqf import (
    FiniteQuadraticForm,
    _rescale,
    form_on_generators,
)
from k3ade.local_invariants import (
    IDENTITY,
    _prime_power_exponent,
    _unit_excess_2,
    star,
)

_REC_CACHE: dict = {}

TOP_MSG = "degenerate form: top generator pairs below full scale"
UNIT_MSG = "cyclic form value must have a unit numerator"
HALF, THIRD = F(1, 2), F(1, 3)

#: Degenerate p-group forms (p, form, message), with the ValueError the
#: split raises on each as presented: at once, or after a rank-1 block,
#: an odd-p repair or an even rank-2 block has been split off.
DEGENERATE = [
    (2, make_form([2, 2], [0, 0], [[0, 0], [0, 0]]), TOP_MSG),
    (3, make_form([3, 3], [0, 0], [[0, 0], [0, 0]]), TOP_MSG),
    (2, make_form([4, 2], [0, 0], [[0, 0], [0, 0]]), TOP_MSG),
    (2, make_form([2, 2, 2], [HALF, 0, 0],
                  [[HALF, 0, 0], [0, 0, 0], [0, 0, 0]]), TOP_MSG),
    (3, make_form([9], [F(2, 3)], [[F(2, 3)]]), UNIT_MSG),
    (2, make_form([4], [HALF], [[HALF]]), UNIT_MSG),
    (2, make_form([2, 2], [HALF, 0], [[HALF, 0], [0, 0]]), UNIT_MSG),
    (3, make_form([3, 3, 3], [0, 0, 0],
                  [[0, THIRD, 0], [THIRD, 0, 0], [0, 0, 0]]), UNIT_MSG),
    (2, make_form([2, 2, 2], [0, 0, 0],
                  [[0, HALF, 0], [HALF, 0, 0], [0, 0, 0]]), UNIT_MSG),
]


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


def minimal_rank_set(p: int,
                     q_p: FiniteQuadraticForm) -> tuple[int, frozenset]:
    """(l, set) for the number l of generators of the p-group form q_p
    and all pairs (excess, reddisc) of rank-l p-adic lattices with form
    q_p."""
    for d in q_p.orders:
        _prime_power_exponent(d, p)
    return (len(q_p.orders), _split_set(p, q_p))


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
