"""The classifier's scan loops over a finite quadratic form.

The scans read the scaled integer values that FiniteQuadraticForm
stores: with E = lcm(orders), form.qs[i] = q(g_i) * E mod 2E and
form.bs[i][j] = b(g_i, g_j) * E mod E, so isotropy and orthogonality
tests are exact integer arithmetic in plain Python, with no bound on
the size of the values.  The isotropy scan meets in the middle (see
isotropic_list); the orthogonality test of many classes against a pool
reduces each class to one row of pairings and takes one dot product per
element of the pool.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul

from .fqf import FiniteQuadraticForm, FqfElement


def backend() -> str:
    """Name of the scan implementation."""
    return "python"


def _cuts(form: FiniteQuadraticForm) -> list[int]:
    """The points 0 <= c <= n at which no generator of 0, ..., c - 1
    pairs with one of c, ..., n - 1; 0 and n are always among them."""
    n = len(form.orders)
    cuts, reach = [0], 0
    for i in range(n):
        tail = form.bs[i][i + 1:]
        if any(tail):
            reach = max(reach, i + 1 + max(t for t, b in enumerate(tail) if b))
        if reach <= i:
            cuts.append(i + 1)
    return cuts


def _scaled_q(form: FiniteQuadraticForm, cuts: list[int]) -> list[int]:
    """E q(x), correct mod 2E but not reduced, for the elements x of the
    subgroup on the generators cuts[0], ..., cuts[-1] - 1, in odometer
    order; cuts are the _cuts of that range.

    q is the sum of its values on the segments between the cuts, each
    evaluated element by element; the segments are combined with one
    addition per element.
    """
    bs, qs, orders = form.bs, form.qs, form.orders
    values = [0]
    for start, stop in zip(cuts, cuts[1:]):
        if stop == start + 1:
            q = qs[start]
            segment = [q * c * c for c in range(orders[start])]
        else:
            gens = range(start, stop)
            pairs = [(a, b, 2 * bs[i][j]) for a, i in enumerate(gens)
                     for b, j in enumerate(gens) if i < j and bs[i][j]]
            segment = [sum(map(mul, qs[start:stop], map(mul, x, x)))
                       + sum(t * x[a] * x[b] for a, b, t in pairs)
                       for x in product(*(range(orders[i]) for i in gens))]
        values = [u + s for u in values for s in segment]
    return values


def _best_cut(form: FiniteQuadraticForm, cuts: list[int]) -> int:
    """The k at which isotropic_list cuts the generators into F and S:
    among the _cuts of all the generators, where no generator of F pairs
    with one of S, the one with the least work |F| + |S|.  k = 0 is
    always a cut, so the scan is exact on any presentation."""
    orders = form.orders
    return min(cuts, key=lambda k: prod(orders[:k]) + prod(orders[k:]))


def isotropic_list(form: FiniteQuadraticForm) -> list[FqfElement]:
    """All elements x with q(x) = 0 in Q/2Z, in odometer order (last
    coefficient fastest).

    The generators are cut into a first part F and a second part S at
    _best_cut, where no pairing crosses, so x = (f, s) has
    E q(x) = E q(f) + E q(s) mod 2E.  The values of S are tabulated
    once, value -> elements in odometer order, and each f, in odometer
    order, looks up -E q(f) mod 2E.  The closed forms of the candidate
    types are direct sums, so their cut falls between components.

    The cuts are found once.  No pairing crosses k, so the cuts of F and
    of S are the cuts of all the generators that fall in their ranges.
    """
    orders, m = form.orders, 2 * form.exp
    cuts = _cuts(form)
    k = _best_cut(form, cuts)
    table: dict[int, list[FqfElement]] = {}
    for s, value in zip(product(*map(range, orders[k:])),
                        _scaled_q(form, [c for c in cuts if c >= k])):
        table.setdefault(value % m, []).append(s)
    hits_at = table.get
    found: list[FqfElement] = []
    for f, value in zip(product(*map(range, orders[:k])),
                        _scaled_q(form, [c for c in cuts if c <= k])):
        hits = hits_at(-value % m)
        if hits:
            found += [f + s for s in hits]
    return found


def orthogonal_mask(form: FiniteQuadraticForm, vs, pool) -> list[list[bool]]:
    """The rows of b(v, w) = 0 in Q/Z, one row per v in vs with one
    entry per w in the pool; vs and pool are sequences of reduced
    elements.

    E b(v, w) = (v^T bs mod E) w mod E: each row of pairings is taken
    once per v, then one dot product per w.
    """
    e = form.exp
    out = []
    for v in vs:
        row = [sum(map(mul, v, col)) % e for col in form.bs]
        out.append([sum(map(mul, row, w)) % e == 0 for w in pool])
    return out


def orthogonal_filter(form: FiniteQuadraticForm,
                      pool: list[FqfElement],
                      v: FqfElement) -> list[FqfElement]:
    """The elements w of the pool with b(v, w) = 0 in Q/Z, in pool
    order.

    Nothing in the package calls it: the classifier tests orthogonality
    with orthogonal_mask.  It stays because BENCHMARK.json names it as a
    per-layer metric (kernels.orthogonal_filter.self_s); the tests still
    call it.
    """
    return [w for w, ok in zip(pool, orthogonal_mask(form, [v], pool)[0])
            if ok]
