"""Classification of (root type, torsion group) pairs on elliptic K3
surfaces by exact lattice computation.

For each candidate ADE type the pipeline enumerates the totally
isotropic glue subgroups of length at most two in the discriminant
form, up to the stable symmetry group; each subgroup is accepted when
the glued overlattice acquires no roots beyond the original type and a
transcendental-partner lattice of signature (2, 18 - rank) exists for
the glued discriminant form.  Accepted subgroups are recorded by their
invariant factors.

The root condition needs no vector of the glued lattice.  The coset of
a glue class decomposes over the components, so its minimal norm is the
sum of the textbook coset minima of the A, D and E components, held as
integers scaled by the exponent E of the discriminant group D.  A
nonzero class whose sum is exactly 2E is a root class, and a subgroup
gains roots exactly when it holds one.  Each type context marks the
root classes in one table over D; the other isotropic classes form the
root-free pool, read off that table class by class.

There are two routes.  The fast one works on integers in D alone.
_pair_stream walks b w, b < m, until m w lands in <v>; the walk gives
the invariant factors of H = <v, w>, and a skip hook passes over the
pair on them before H is built from the cosets of <v>.  classify_type
is one lazy loop over the stream on the reduced pairs of the pool
(below): it skips factors already accepted or failing the p-rank prune,
requires H inside the pool, then asks for the partner of the glued form
H^perp / H from fqf.subquotient.  check_pair runs the same tests on one
pair.  The oracle, slow_check_pair, builds the explicit overlattice,
takes the glued form from its Gram matrix, finds its roots by vector
enumeration and takes the invariant factors from the Smith form of the
relations of fqf.span; the tests compare the two routes.

The stream is reduced by the stable symmetries on both generators; a
symmetry maps H to an isomorphic glue, with the same verdict and
invariant factors (Nikulin 1979, Prop. 1.4.1).  They are the products
of the per-component symmetries, each held as a permutation of that
component's classes (ade_types._component_group), with the
permutations of equal components.  v runs over the canonical
representatives of the orbits of the pool: per-component least images,
sorted within each block of equal components.  For each v, _candidates
keeps only the orthogonal w that are least in their orbit under
Stab'(v), the product of the per-component stabilisers of the pieces
of v with the permutations of equal components whose pieces of v
agree.  Stab'(v) fixes v, so every <v, w'> has an image <v, w>
with a kept w.  Both choices are one table lookup and one sort per
element, over codes of the component pieces (see _candidates).

Most partner questions are decided by a length count.  By Nikulin's
Cor. 1.10.2, an even lattice of signature (r, s) with form q exists
when n = r + s exceeds the length of the group of q and r - s = sign(q)
mod 8.  The root lattice is positive definite, so the Gauss sum of its
form gives sign = rank mod 8, and by Milgram's formula H^perp / H keeps
that sum for isotropic H.  With n = 20 - rank and r - s = rank - 16 the
congruence always holds.  So the answer is yes when, at each prime of
D, fewer than n orders of the glued form are divisible by p; only the
other questions reach genus.exists_even_lattice, which keeps its full
local test because it also serves signatures where the congruence
fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, gcd, lcm, prod
from operator import add, mod
from typing import Iterable, Iterator, Optional

import numpy as np

from . import ade_types, genus, lattice_ops, local_invariants
from .ade_types import (ADEType, Component, _component_form,
                        _component_group, cartan_gram, closed_form,
                        disc_form_closed, disc_order, enumerate_candidates)
from .exact_linalg import prime_factors, smith_normal_form
from .fqf import (FiniteQuadraticForm, FqfElement, RatVector, element_order,
                  eval_b, eval_q, group_order, span, subquotient)
from .genus import exists_even_lattice
from .kernels import isotropic_list, orthogonal_mask
from .lattice_ops import GramLattice, overlattice, root_type

FactorTuple = tuple[int, ...]

#: Largest discriminant group over the candidate types; contexts for
#: types within the Euler bound check it.
MAX_DISC_ORDER = 6561


@dataclass(frozen=True)
class ClassEntry:
    """A realizable pair: ADE type plus torsion invariant factors.

    ``group`` is the ascending invariant-factor tuple; ``()`` is the
    trivial group.  At most two factors occur and the squared group
    order divides the discriminant of the root lattice.
    """

    type: ADEType
    group: FactorTuple

    def __post_init__(self):
        if len(self.group) > 2:
            raise ValueError("torsion groups have length at most two")
        for d in self.group:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.group, self.group[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a chain")
        if disc_order(self.type) % self.group_order ** 2 != 0:
            raise ValueError("squared group order must divide the "
                             "root lattice discriminant")

    @property
    def group_order(self) -> int:
        return prod(self.group)


@dataclass(frozen=True)
class GluePair:
    """Two isotropic, mutually orthogonal discriminant classes."""

    v: FqfElement
    w: FqfElement


class _TypeContext:
    __slots__ = ("sigma", "n", "form", "roots", "pranks")

    def __init__(self, sigma: ADEType):
        self.sigma = sigma
        # The rank of the transcendental partner, signature (2, 18 - rank).
        self.n = 20 - sigma.rank
        self.form = closed_form(sigma)
        # Over D: E times the sum of the per-component coset minima; the
        # root classes are the nonzero classes where it is 2E.
        e, orders = self.form.exp, self.form.orders
        norms = np.zeros((), np.int64)
        for comp in sigma.components:
            norms = np.add.outer(norms, _scaled_minima(comp, e))
        self.roots = norms == 2 * e
        primes = {p for d in orders for p in prime_factors(d)}
        self.pranks = {p: sum(1 for d in orders if d % p == 0)
                       for p in primes}
        if sigma.euler <= 24 and group_order(self.form) > MAX_DISC_ORDER:
            raise RuntimeError(f"discriminant group of {sigma} exceeds "
                               f"{MAX_DISC_ORDER}")


@lru_cache(maxsize=None)
def _context(sigma: ADEType) -> _TypeContext:
    if sigma.is_empty:
        raise ValueError("the empty type cannot be classified")
    if sigma.rank > 18:
        raise ValueError("rank exceeds 18")
    return _TypeContext(sigma)


@lru_cache(maxsize=None)
def _component_theta(comp: Component) -> tuple[int, dict]:
    """(d, table) for a single component: per nonzero discriminant
    class, d times the minimal norm over the corresponding coset of the
    component lattice and the number of vectors attaining it, restricted
    to minima at most 2 (larger minima never produce roots).  The
    denominator d is l+1 for A_l, 4 for D_n, 3 for E6, 2 for E7 and 1
    for E8, so every entry is an integer.

    The classes are coefficient tuples on the generators of
    disc_form_closed, and the values are the closed forms of
    Conway-Sloane (SPLAG ch. 4): class k of A_l has minimum
    k(l+1-k)/(l+1), attained by C(l+1, k) vectors; the vector class of
    D_n has minimum 1 (2n vectors) and each spinor class n/4 (2^(n-1)
    vectors); the nonzero classes of E6 have 4/3 (27 vectors) and that
    of E7 has 3/2 (56 vectors).
    """
    kind, n = comp
    if kind == "A":
        den, table = n + 1, {(k,): (k * (n + 1 - k), comb(n + 1, k))
                             for k in range(1, n + 1)}
    elif kind == "D":
        den, vector, spinor = 4, (4, 2 * n), (n, 2 ** (n - 1))
        if n % 2:
            # One generator of order 4, the dual of the spinor node 1.
            table = {(1,): spinor, (2,): vector, (3,): spinor}
        else:
            # The duals of the spinor node 1 and of the chain end n.
            table = {(1, 0): spinor, (0, 1): vector, (1, 1): spinor}
    elif n == 6:
        den, table = 3, {(1,): (4, 27), (2,): (4, 27)}
    elif n == 7:
        den, table = 2, {(1,): (3, 56)}
    else:
        den, table = 1, {}
    return den, {cls: entry for cls, entry in table.items()
                 if entry[0] <= 2 * den}


@lru_cache(maxsize=None)
def _scaled_minima(comp: Component, e: int) -> np.ndarray:
    """E times the coset minimum of each discriminant class of a single
    component, as an array indexed by the class: 0 for the zero class
    and 2E + 1 for a minimum above 2."""
    den, table = _component_theta(comp)
    orders = _component_form(comp).orders
    minima = []
    for piece in product(*(range(d) for d in orders)):
        num = (table[piece][0] * e if piece in table
               else (2 * e + 1) * den if any(piece) else 0)
        if num % den:
            raise RuntimeError(f"coset minimum {Fraction(num, den * e)} of "
                               f"{comp} is not a multiple of 1/{e}")
        minima.append(num // den)
    return np.reshape(minima, orders)


@lru_cache(maxsize=None)
def _component_pair_min(comp: Component) -> np.ndarray:
    """The K x K table of a single component whose entry [a, b] is the
    least code of g b over its stable symmetries g with g a = a (see
    _component_group).  Row 0 holds the least code of each orbit, since
    every g fixes 0."""
    group = _component_group(comp)
    size = len(group[0])
    return np.array([[min(g[b] for g in group if g[a] == a)
                      for b in range(size)] for a in range(size)], np.int64)


def _candidates(ctx: _TypeContext,
                pool: list[FqfElement]) -> list[tuple]:
    """(v, ws) for each canonical representative v of the symmetry
    orbits met in the pool, with the w of the pool orthogonal to v that
    are least in their orbit under Stab'(v), both in pool order.

    The pool must be sorted, hold 0 and be closed under the symmetries,
    as the isotropic classes and the root-free pool are; the
    representatives are then the elements of the pool that are least
    in their orbit, since Stab'(0) is the whole group.

    Whether w, given by its component codes wc, is least in its orbit
    under Stab'(v), for v given by the codes vc of a canonical element,
    is one sort of a row.  The least image of w takes the pair minimum
    of each piece and sorts the pieces inside each run of equal
    (component, v-piece).  v is canonical, so those runs are contiguous
    and ordered, and one sort of bias + v_c K + pairmin along the
    components sorts exactly inside them; w is least when that sort
    gives bias + v_c K + w_c back.
    """
    if len(pool) == 1:
        # A pool of one class holds only 0.
        return [(pool[0], pool)]
    # x @ place gives each component piece of x as its code, in odometer
    # order, below the size K of that component's group; pairmin[offsets
    # + a K + b] is the entry [a, b] of its _component_pair_min; bias
    # keeps every block of equal components apart from the others.
    comps = ctx.sigma.components
    orders = [_component_form(comp).orders for comp in comps]
    place = np.array([[prod(ds[i + 1:]) if c == k else 0
                       for k in range(len(comps))]
                      for c, ds in enumerate(orders) for i in range(len(ds))])
    tables = [_component_pair_min(comp) for comp in comps]
    sizes = np.array([len(t) for t in tables])
    pairmin = np.concatenate(tables, axis=None)
    offsets = np.array([0, *accumulate(k * k for k in sizes[:-1])])
    counts = [count for _, count in ctx.sigma.runs()]
    bias = np.repeat(np.arange(len(counts)) * max(sizes) ** 2, counts)

    def least(vc, wc: np.ndarray) -> np.ndarray:
        lead = bias + vc * sizes
        key = lead + pairmin[offsets + vc * sizes + wc]
        return (np.sort(key, axis=1) == lead + wc).all(axis=1)

    xs = np.array(pool, dtype=np.int64)
    codes = xs @ place
    reps = np.flatnonzero(least(0, codes))
    rows, cols = np.nonzero(orthogonal_mask(ctx.form, xs[reps], xs))
    keep = least(codes[reps][rows], codes[cols])
    cuts = np.searchsorted(rows[keep], np.arange(1, len(reps)))
    return [(pool[i], [pool[j] for j in js.tolist()])
            for i, js in zip(reps.tolist(), np.split(cols[keep], cuts))]


def _pair_stream(form: FiniteQuadraticForm, candidates: Iterable[tuple],
                 skip=None) -> Iterator[tuple]:
    """Yield (v, w, subgroup, factors) for each (v, ws) of the
    candidates and each w in ws, each literal subgroup at most once;
    factors are the subgroup's invariant factors.  Elements must be
    reduced, and each w isotropic and orthogonal to its v.  Pairs whose
    factors satisfy skip are never built.

    The subgroup H = <v, w> is the union of the cosets b w + <v>,
    b < m, where m is the least positive integer with m w in <v>, say
    m w = k v; then H has order m ord(v) and exponent lcm(ord(v),
    ord(w)), with ord(w) = m ord(v) / gcd(k, ord(v)).  Every element
    of a coset with gcd(b, m) = 1 generates H together with v, so those
    cosets are marked done and H is built once per v.
    """
    orders = form.orders
    zero = (0,) * len(orders)
    seen: set[frozenset] = set()
    for v, ws in candidates:
        # k v -> k, for k < ord(v).
        multiples: dict[FqfElement, int] = {}
        u = zero
        while u not in multiples:
            multiples[u] = len(multiples)
            u = tuple(map(mod, map(add, u, v), orders))
        ord_v = len(multiples)
        done: set[FqfElement] = set()
        for w in ws:
            if w in done:
                continue
            shifts = [zero]
            bw = w
            while bw not in multiples:
                shifts.append(bw)
                bw = tuple(map(mod, map(add, bw, w), orders))
            m = len(shifts)
            exp = lcm(ord_v, m * ord_v // gcd(multiples[bw], ord_v))
            small = m * ord_v // exp
            factors = (small, exp) if small > 1 else (exp,) if exp > 1 else ()
            if skip is not None and skip(factors):
                continue
            cosets = [[tuple(map(mod, map(add, shift, u), orders))
                       for u in multiples] for shift in shifts]
            for b, coset in enumerate(cosets):
                if gcd(b, m) == 1:
                    done.update(coset)
            sub = frozenset(x for coset in cosets for x in coset)
            if len(sub) != ord_v * m:
                raise RuntimeError("glue cosets overlap")
            if sub in seen:
                continue
            seen.add(sub)
            yield v, w, sub, factors


def glue_candidates(sigma: ADEType) -> list[GluePair]:
    """A covering family of generator pairs for the totally isotropic
    subgroups of length at most two, deduplicated by literal subgroup.

    Every such subgroup maps to the span of some listed pair under a
    stable symmetry, which preserves the acceptance verdict and the
    invariant factors; the pair (0, 0) is included.  The family takes
    one v per symmetry orbit and, with it, one w per orbit of the
    stabiliser Stab'(v) (see the module docstring), so a subgroup may
    still be listed in more than one of its images.
    """
    ctx = _context(sigma)
    iso = isotropic_list(ctx.form)
    return [GluePair(v, w) for v, w, _, _ in
            _pair_stream(ctx.form, _candidates(ctx, iso))]


_exists_cached = lru_cache(maxsize=None)(exists_even_lattice)


def clear_caches() -> None:
    """Empty every memo table the pipeline fills, from the type contexts
    down to the local invariant sets, so the next call starts cold.

    The tables are unbounded and live as long as the process; this is the
    one way to drop them, e.g. between runs that must not share work.
    """
    for memo in (_context, _component_theta, _scaled_minima,
                 _component_pair_min, _exists_cached, genus._local_data,
                 local_invariants.unimodular_set, ade_types._component_gram,
                 ade_types.component_inverse, ade_types._component_form,
                 ade_types._component_lifts,
                 ade_types._component_group,
                 ade_types._allowed_replacements):
        memo.cache_clear()
    for table in (local_invariants._SET_CACHE, local_invariants._REC_CACHE,
                  lattice_ops._ROOT_TYPE_CACHE):
        table.clear()


def _invariant_factors(form: FiniteQuadraticForm, v: FqfElement,
                       w: FqfElement) -> FactorTuple:
    """Invariant factors of the subgroup generated by v and w, via the
    Smith form of its relation lattice."""
    gens = [g for g in (v, w) if any(g)]
    if not gens:
        return ()
    if len(gens) == 1:
        return (element_order(form, gens[0]),)
    ev = element_order(form, v)
    ew = element_order(form, w)
    rels = [[ev, 0], [0, ew]]
    for a in range(ev):
        for b in range(ew):
            if (a or b) and all(
                    (a * x + b * y) % d == 0
                    for x, y, d in zip(v, w, form.orders)):
                rels.append([a, b])
    _, diag, _ = smith_normal_form(rels)
    factors = tuple(d for d in (diag[0][0], diag[1][1]) if d > 1)
    if prod(factors) != len(span(form, gens)):
        raise RuntimeError("invariant factors disagree with the span")
    return factors


def _glue_lift(lifts: list[RatVector], x: FqfElement) -> RatVector:
    return [sum((c * row[j] for c, row in zip(x, lifts)), Fraction(0))
            for j in range(len(lifts[0]))]


def _prank_fails(ctx: _TypeContext, factors: FactorTuple) -> bool:
    """The p-rank prune.  Each of restricting to H^perp and quotienting
    by H lowers the p-rank by at most rank_p(H), and a lattice of rank
    n = 2 + (18 - rank) cannot carry a form of p-rank above n."""
    return any(rank_p - 2 * sum(1 for f in factors if f % p == 0) > ctx.n
               for p, rank_p in ctx.pranks.items())


def _partner_exists(ctx: _TypeContext, v: FqfElement, w: FqfElement,
                    sub: frozenset) -> bool:
    """Whether the signature (2, 18 - rank) partner of the glued form
    H^perp / H of H = <v, w> exists; yes outright when the partner rank
    exceeds the length of the glued group (see the module docstring)."""
    glued = subquotient(ctx.form, (v, w))
    if group_order(glued) * len(sub) ** 2 != group_order(ctx.form):
        raise RuntimeError("glued form order disagrees with the subgroup")
    if all(sum(1 for d in glued.orders if d % p == 0) < ctx.n
           for p in ctx.pranks):
        return True
    return _exists_cached(2, ctx.n - 2, glued)


def check_pair(sigma: ADEType, pair: GluePair) -> Optional[ClassEntry]:
    """Run the acceptance test on one glue pair, through the subgroup
    stream and the tests of classify_type."""
    ctx = _context(sigma)
    form = ctx.form
    for g in (pair.v, pair.w):
        if eval_q(form, g) != 0:
            raise ValueError("glue class is not isotropic")
    if eval_b(form, pair.v, pair.w) != 0:
        raise ValueError("glue classes do not pair to zero")
    v, w = (tuple(map(mod, g, form.orders)) for g in (pair.v, pair.w))
    _, _, sub, factors = next(_pair_stream(form, [(v, [w])]))
    if (_prank_fails(ctx, factors) or any(ctx.roots[h] for h in sub)
            or not _partner_exists(ctx, v, w, sub)):
        return None
    return ClassEntry(sigma, factors)


def classify_type(sigma: ADEType) -> set[FactorTuple]:
    """All torsion groups realizable together with the given type, by
    one lazy loop over the root-free pool (see the module docstring)."""
    ctx = _context(sigma)
    iso = isotropic_list(ctx.form)
    pool = [x for x in iso if not ctx.roots[x]]
    root_free = set(pool)
    out: set[FactorTuple] = set()

    def skip(factors: FactorTuple) -> bool:
        return factors in out or _prank_fails(ctx, factors)

    for v, w, sub, factors in _pair_stream(
            ctx.form, _candidates(ctx, pool), skip):
        if sub <= root_free and _partner_exists(ctx, v, w, sub):
            out.add(factors)
    return out


def classify_all(max_rank: int = 18,
                 max_euler: int = 24) -> list[ClassEntry]:
    """Classify every candidate type; sorted by (rank, type order,
    group order, invariant factors)."""
    entries: list[ClassEntry] = []
    for sigma in enumerate_candidates(max_rank, max_euler):
        for factors in sorted(classify_type(sigma),
                              key=lambda f: (prod(f), f)):
            entries.append(ClassEntry(sigma, factors))
    entries.sort(key=lambda e: (e.type.sort_key(), e.group_order, e.group))
    return entries


def verify_reference(results: Iterable[ClassEntry],
                     reference: Iterable[tuple[ADEType, FactorTuple]]
                     ) -> list[tuple]:
    """Diff computed entries against reference pairs.

    Returns an empty list on agreement; otherwise rows
    ("missing", type, group) for reference pairs not computed,
    ("extra", type, group) for computed pairs not in the reference, and
    ("group-mismatch", type, (computed, reference)) per affected type.
    """
    got = {(e.type, tuple(e.group)) for e in results}
    ref = {(t, tuple(g)) for t, g in reference}
    diff: list[tuple] = []

    def order(item):
        return (item[0].sort_key(), item[1])

    for t, g in sorted(ref - got, key=order):
        diff.append(("missing", t, g))
    for t, g in sorted(got - ref, key=order):
        diff.append(("extra", t, g))
    got_by_type: dict[ADEType, set] = {}
    for t, g in got:
        got_by_type.setdefault(t, set()).add(g)
    ref_by_type: dict[ADEType, set] = {}
    for t, g in ref:
        ref_by_type.setdefault(t, set()).add(g)
    for t in sorted(set(got_by_type) & set(ref_by_type),
                    key=ADEType.sort_key):
        if got_by_type[t] != ref_by_type[t]:
            diff.append(("group-mismatch", t,
                         (tuple(sorted(got_by_type[t])),
                          tuple(sorted(ref_by_type[t])))))
    return diff


def slow_check_pair(sigma: ADEType, pair: GluePair) -> Optional[ClassEntry]:
    """Reference implementation of check_pair that builds the glued
    overlattice explicitly, takes the glued form from its Gram matrix and
    re-derives the root type by vector enumeration.  It shares no code
    that builds the glued form with the fast path; used to cross-validate
    it."""
    form, lifts = disc_form_closed(sigma)
    gens = [g for g in (pair.v, pair.w) if any(g)]
    lattice, index = overlattice(GramLattice(cartan_gram(sigma)),
                                 [_glue_lift(lifts, g) for g in gens])
    expected = len(span(form, gens)) if gens else 1
    if index != expected:
        raise RuntimeError("overlattice index disagrees with the subgroup")
    glued = lattice.disc_form()[0]
    if not exists_even_lattice(2, 18 - sigma.rank, glued):
        return None
    if root_type(lattice) != sigma:
        return None
    return ClassEntry(sigma, _invariant_factors(form, pair.v, pair.w))
