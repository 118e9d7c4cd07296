"""Operations on explicit even integral lattices.

A lattice is presented by its Gram matrix on a fixed basis, and each
operation checks the matrix once on entry: it must be square, integral,
symmetric with even diagonal and nondegenerate.  The module builds even
overlattices from isotropic glue vectors in the dual, together with the
invariant factors of the glue group M/L, enumerates short vectors by a
Fincke-Pohst descent on integers (its quadratic form split by one
fraction-free Bareiss elimination), and identifies the ADE type of the
sublattice generated by the norm-2 vectors, block by block on the
Gram matrix.
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul
from typing import Sequence

from .ade_types import ADEType, Component
from .exact_linalg import (_scaled_inverse, _smith, hermite_normal_form,
                           int_det, int_rank)

Gram = tuple[tuple[int, ...], ...]


def _checked(gram: Sequence[Sequence[int]]) -> Gram:
    """The rows of an even symmetric integral Gram matrix as int tuples.

    Raises ValueError for an empty, ragged, non-integral, nonsymmetric
    or odd-diagonal matrix; nondegeneracy is left to the elimination
    each caller runs anyway.
    """
    n = len(gram)
    if n == 0:
        raise ValueError("empty Gram matrix")
    rows = []
    for row in gram:
        if len(row) != n:
            raise ValueError("Gram matrix must be square")
        if any(x % 1 for x in row):
            raise ValueError("Gram entries must be integers")
        rows.append(tuple(map(int, row)))
    for i, row in enumerate(rows):
        if row[i] % 2:
            raise ValueError("diagonal must be even")
        if any(row[j] != rows[j][i] for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
    return tuple(rows)


def overlattice(gram: Sequence[Sequence[int]],
                glue: Sequence[Sequence[int]]
                ) -> tuple[list[list[int]], tuple[int, ...]]:
    """Even overlattice M generated by the lattice L of the Gram matrix
    and dual glue vectors.

    Each glue vector y is given by its integer dual coordinates z = G y
    (see fqf), and the glue classes must be totally isotropic for the
    discriminant form.  Returns the Gram matrix of M on a new basis
    together with the ascending invariant factors of the glue group
    M/L, which satisfy det(L) = det(M) * prod(factors)**2.  Evenness of
    the result is checked, as it follows from isotropy.
    """
    gram = _checked(gram)
    n = len(gram)
    for z in glue:
        if len(z) != n:
            raise ValueError("lift has wrong length")
        if any(x % 1 for x in z):
            raise ValueError("dual coordinates must be integers")
    # With d = det(G), d y = adj(G) z and (y, y') = z adj(G) z' / d.
    try:
        adj, d = _scaled_inverse(gram)
    except ValueError:
        raise ValueError("Gram matrix is degenerate") from None
    scaled = [[sum(map(mul, row, z)) for row in adj] for z in glue]
    for i, y in enumerate(scaled):
        if sum(map(mul, glue[i], y)) % (2 * d):
            raise ValueError("glue class is not isotropic")
        for z in glue[i + 1:]:
            if sum(map(mul, z, y)) % d:
                raise ValueError("glue classes do not pair to zero")

    # The Hermite basis of |d| M in lattice coordinates; its Gram matrix
    # is d^2 times that of M.
    rows = [[abs(d) * (i == j) for j in range(n)] for i in range(n)]
    hnf = hermite_normal_form(rows + scaled)
    if len(hnf) != n:
        raise RuntimeError("overlattice basis must have full rank")
    half = [[sum(map(mul, h, row)) for row in gram] for h in hnf]
    new_gram = []
    for a in half:
        row = []
        for h in hnf:
            g, r = divmod(sum(map(mul, a, h)), d * d)
            if r:
                raise RuntimeError("overlattice pairing must be integral")
            row.append(g)
        new_gram.append(row)
    if any(new_gram[i][i] % 2 for i in range(n)):
        raise RuntimeError("overlattice must be even")
    # |d| M / |d| L is M/L, and |d| L = |d| Z^n: a Smith diagonal s_1 |
    # ... | s_n of the Hermite basis gives the factors |d| / s_i.
    diag, _, _ = _smith(hnf, right=False)
    factors = tuple(abs(d) // diag[i][i] for i in reversed(range(n))
                    if diag[i][i] < abs(d))
    if int_det(new_gram) * prod(factors) ** 2 != d:
        raise RuntimeError("det ratio must be the squared glue order")
    return new_gram, factors


def short_vectors(gram: Sequence[Sequence[int]],
                  norm_bound: int = 2) -> list[tuple[int, ...]]:
    """The nonzero vectors of norm at most norm_bound, one per {v, -v}
    pair, the one with positive leading nonzero coordinate, sorted; by a
    Fincke-Pohst descent in integers.  Raises ValueError unless the
    lattice is positive definite.
    """
    gram = _checked(gram)
    n = len(gram)
    # One forward fraction-free (Bareiss) elimination of G: row i ends as
    # B_i with B_ii = D_{i+1}, the leading principal minor of size i + 1
    # (D_0 = 1), and x G x = sum_i U_i^2 / (D_i D_{i+1}) with U_i = B_i x.
    # G is positive definite exactly when every pivot D_{i+1} is positive.
    b = [list(row) for row in gram]
    minors = [1]
    for k in range(n):
        rk = b[k]
        p = rk[k]
        if p <= 0:
            # A positive definite matrix is nondegenerate, so only a
            # failed one needs its determinant.
            raise ValueError("Gram matrix is degenerate" if not int_det(gram)
                             else "lattice is not positive definite")
        for ri in b[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (p * ri[j] - f * rk[j]) // minors[-1]
        minors.append(p)
    # The descent runs at the scale L = lcm(D_i D_{i+1}): x_i costs
    # weight_i U_i^2 with weight_i = L / (D_i D_{i+1}), out of norm_bound L.
    pairs = list(map(mul, minors, minors[1:]))
    scale = lcm(*pairs)
    weight = [scale // d for d in pairs]
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, budget: int, zero_above: bool) -> None:
        # zero_above: every coordinate above i is 0.  Then only x_i >= 0
        # is walked, so of each pair {v, -v} only the one whose last
        # nonzero coordinate is positive is reached, and the zero vector
        # is the one leaf still zero_above.
        if i < 0:
            if not zero_above:
                found.append(tuple(x))
            return
        row = b[i]
        piv, c = row[i], weight[i]
        if zero_above:
            u, walks = 0, ((0, 1),)
        else:
            u = sum(row[j] * x[j] for j in range(i + 1, n))
            # U_i = piv x_i + u is at most 0 from start down and positive
            # from start + 1 up, so each walk stops at its first overrun.
            start = -u // piv
            walks = ((start, -1), (start + 1, 1))
        for xi, step in walks:
            while True:
                used = c * (piv * xi + u) ** 2
                if used > budget:
                    break
                x[i] = xi
                descend(i - 1, budget - used, zero_above and not xi)
                xi += step
        x[i] = 0

    descend(n - 1, norm_bound * scale, True)
    # Flip each vector so that its leading nonzero coordinate is positive.
    return sorted(v if next(filter(None, v)) > 0 else tuple(-c for c in v)
                  for v in found)


_EXCEPTIONAL_COUNTS = {(6, 72): ("E", 6), (7, 126): ("E", 7),
                       (8, 240): ("E", 8)}

_ROOT_TYPE_CACHE: dict[Gram, tuple[Component, ...]] = {}


def root_type(gram: Sequence[Sequence[int]]) -> ADEType:
    """ADE type of the sublattice generated by the norm-2 vectors.

    Roots are grouped into components by the nonorthogonality relation;
    each component is identified from its rank and root count.  The
    Gram matrix is split into orthogonal blocks and each block's
    sub-matrix is classified on its own: in an even positive-definite
    lattice every norm-2 vector is supported on a single block.
    """
    gram = _checked(gram)
    comps: list[Component] = []
    for block in _gram_blocks(gram):
        sub = tuple(tuple(gram[i][j] for j in block) for i in block)
        cached = _ROOT_TYPE_CACHE.get(sub)
        if cached is None:
            cached = _ROOT_TYPE_CACHE[sub] = _connected_root_type(sub)
        comps.extend(cached)
    return ADEType(tuple(comps))


def _gram_blocks(gram) -> list[list[int]]:
    """Index sets of the connected components of the graph whose edges
    are the nonzero off-diagonal entries of the square matrix gram, each
    ascending, ordered by least index."""
    n = len(gram)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _pairwise_gram(gram: Gram, reps) -> list[list[int]]:
    """All pairwise products of the given vectors: the Gram matrix is
    multiplied into each vector once, then one dot product per pair."""
    images = [[sum(map(mul, v, col)) for col in gram] for v in reps]
    return [[sum(map(mul, image, v)) for v in reps] for image in images]


def _connected_root_type(gram: Gram) -> tuple[Component, ...]:
    """The root components of one orthogonal block, as root_type
    caches them."""
    reps = short_vectors(gram, 2)
    comps: list[Component] = []
    for block in _gram_blocks(_pairwise_gram(gram, reps)):
        vectors = [reps[i] for i in block]
        r = int_rank(vectors)
        count = 2 * len(vectors)
        if count == r * (r + 1):
            comps.append(("A", r))
        elif r >= 4 and count == 2 * r * (r - 1):
            comps.append(("D", r))
        elif (r, count) in _EXCEPTIONAL_COUNTS:
            comps.append(_EXCEPTIONAL_COUNTS[(r, count)])
        else:
            raise RuntimeError(
                f"root component with rank {r} and {count} roots "
                "matches no ADE type")
    return tuple(comps)
