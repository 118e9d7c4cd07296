"""Operations on explicit even integral lattices.

A lattice is presented by its Gram matrix on a fixed basis.  The
module builds even overlattices from isotropic glue vectors in the
dual, enumerates short vectors by a Fincke-Pohst descent on integers
(its quadratic form split by one fraction-free Bareiss elimination),
and identifies the ADE type of the sublattice generated by the norm-2
vectors.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .ade_types import ADEType, Component
from .exact_linalg import (_scaled_inverse, hermite_normal_form, int_det,
                           int_rank)


class GramLattice:
    """An even integral lattice of nonzero determinant.

    The Gram matrix must be symmetric with even diagonal.  Positive
    definiteness is only required (and checked) by the operations that
    need it.
    """

    __slots__ = ("gram", "det")

    def __init__(self, gram: Sequence[Sequence[int]]):
        n = len(gram)
        if n == 0:
            raise ValueError("empty Gram matrix")
        rows = []
        for i in range(n):
            row = list(gram[i])
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            for x in row:
                if x % 1 != 0:
                    raise ValueError("Gram entries must be integers")
            rows.append(tuple(int(x) for x in row))
        for i in range(n):
            if rows[i][i] % 2 != 0:
                raise ValueError("diagonal must be even")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.gram = tuple(rows)
        self.det = int_det(rows)
        if self.det == 0:
            raise ValueError("Gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"GramLattice(rank={self.rank}, det={self.det})"


def overlattice(lat: GramLattice,
                glue: Sequence[Sequence[int]]) -> tuple[GramLattice, int]:
    """Even overlattice generated by the lattice and dual glue vectors.

    Each glue vector y is given by its integer dual coordinates z = G y
    (see fqf), and the glue classes must be totally isotropic for the
    discriminant form.  Returns the overlattice on a new basis together
    with the index, which satisfies det(L) = det(M) * index**2.
    Evenness of the result is checked, as it follows from isotropy.
    """
    n = lat.rank
    for z in glue:
        if len(z) != n:
            raise ValueError("lift has wrong length")
        if any(x % 1 for x in z):
            raise ValueError("dual coordinates must be integers")
    # With d = det(G), d y = adj(G) z and (y, y') = z adj(G) z' / d.
    adj, d = _scaled_inverse(lat.gram)
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
    half = [[sum(map(mul, h, row)) for row in lat.gram] for h in hnf]
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

    over = GramLattice(new_gram)
    ratio, r = divmod(d, over.det)
    if r or ratio <= 0:
        raise RuntimeError("det ratio must be a positive integer")
    index = isqrt(ratio)
    if index * index != ratio:
        raise RuntimeError("index must square to det ratio")
    return over, index


def short_vectors(lat: GramLattice, norm_bound: int = 2,
                  both_signs: bool = False) -> list[tuple[int, ...]]:
    """All nonzero vectors of norm at most norm_bound, sorted, by a
    Fincke-Pohst descent in integers.

    By default one representative per {v, -v} pair is returned, chosen
    with positive leading nonzero coordinate; with both_signs=True the
    full list is returned.  Raises ValueError unless the lattice is
    positive definite.
    """
    n = lat.rank
    # One forward fraction-free (Bareiss) elimination of G: row i ends as
    # B_i with B_ii = D_{i+1}, the leading principal minor of size i + 1
    # (D_0 = 1), and x G x = sum_i U_i^2 / (D_i D_{i+1}) with U_i = B_i x.
    # G is positive definite exactly when every pivot D_{i+1} is positive.
    b = [list(row) for row in lat.gram]
    minors = [1]
    for k in range(n):
        rk = b[k]
        p = rk[k]
        if p <= 0:
            raise ValueError("lattice is not positive definite")
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

    def descend(i: int, budget: int) -> None:
        if i < 0:
            if any(x):
                found.append(tuple(x))
            return
        row = b[i]
        u = sum(row[j] * x[j] for j in range(i + 1, n))
        piv, c = row[i], weight[i]
        # U_i = piv x_i + u is at most 0 from start down and positive
        # from start + 1 up, so each walk stops at its first overrun.
        start = -u // piv
        for xi, step in ((start, -1), (start + 1, 1)):
            while True:
                used = c * (piv * xi + u) ** 2
                if used > budget:
                    break
                x[i] = xi
                descend(i - 1, budget - used)
                xi += step
        x[i] = 0

    descend(n - 1, norm_bound * scale)
    if not both_signs:
        neg = {tuple(-c for c in v) for v in found}
        found = [v for v in found if v not in neg or v > tuple(-c for c in v)]
    return sorted(found)


_EXCEPTIONAL_COUNTS = {(6, 72): ("E", 6), (7, 126): ("E", 7),
                       (8, 240): ("E", 8)}

_ROOT_TYPE_CACHE: dict[tuple, tuple[Component, ...]] = {}


def root_type(lat: GramLattice) -> ADEType:
    """ADE type of the sublattice generated by the norm-2 vectors.

    Roots are grouped into components by the nonorthogonality relation;
    each component is identified from its rank and root count.  A Gram
    matrix that splits into orthogonal blocks is classified block by
    block: in an even positive-definite lattice every norm-2 vector is
    supported on a single block.
    """
    blocks = _gram_blocks(lat.gram)
    if len(blocks) > 1:
        comps: list[Component] = []
        for block in blocks:
            sub = GramLattice([[lat.gram[i][j] for j in block]
                               for i in block])
            comps.extend(root_type(sub).components)
        return ADEType(tuple(comps))
    cached = _ROOT_TYPE_CACHE.get(lat.gram)
    if cached is not None:
        return ADEType(cached)
    result = _connected_root_type(lat)
    _ROOT_TYPE_CACHE[lat.gram] = result.components
    return result


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


def _pairwise_gram(lat: GramLattice, reps) -> list[list[int]]:
    """All pairwise products of the given vectors: the Gram matrix is
    multiplied into each vector once, then one dot product per pair."""
    images = [[sum(map(mul, v, col)) for col in lat.gram] for v in reps]
    return [[sum(map(mul, image, v)) for v in reps] for image in images]


def _connected_root_type(lat: GramLattice) -> ADEType:
    reps = short_vectors(lat, 2)
    comps: list[Component] = []
    for block in _gram_blocks(_pairwise_gram(lat, reps)):
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
    return ADEType(tuple(comps))
