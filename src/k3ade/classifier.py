"""Classification of (root type, torsion group) pairs on elliptic K3
surfaces by exact lattice computation.

For each candidate ADE type the pipeline enumerates the totally
isotropic glue subgroups of length at most two in the discriminant
form, up to the stable symmetry group; each subgroup is accepted when
the glued overlattice acquires no roots beyond the original type and a
transcendental-partner lattice of signature (2, 18 - rank) exists for
the glued discriminant form.  Accepted subgroups are recorded by their
invariant factors.

The subgroup stream builds each subgroup <v, w> once per orbit
representative v, as a union of cosets of <v>, and reads its invariant
factors off the orders of v and w and the size of the subgroup.  The
breadth-first fqf.span and the Smith-form invariant factors remain the
independent route of check_pair and slow_check_pair.

The root condition is decided without enumerating vectors of the glued
lattice: the coset of a glue class decomposes over the components, so
its minimal norm is the sum of per-component coset minima, and new
roots appear exactly when that sum equals 2.  The per-component minima
are tabulated once per component type from the short vectors of the
dual lattice.  The root lattice itself is built only for candidates
that pass both the p-rank prune and the root condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, mod
from typing import Iterable, Iterator, Optional

import numpy as np

from .ade_types import (ADEType, Component, act, cartan_gram,
                        component_inverse, disc_form_closed, disc_order,
                        enumerate_candidates, gamma_generators)
from .exact_linalg import prime_factors, smith_normal_form
from .fqf import (FiniteQuadraticForm, FqfElement, RatVector, element_order,
                  eval_b, eval_q, group_order, span, subquotient)
from .genus import exists_even_lattice
from .kernels import isotropic_list, orthogonal_filter
from .lattice_ops import GramLattice, overlattice, root_type, short_vectors

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
    __slots__ = ("sigma", "form", "lifts", "_lattice", "spec", "theta",
                 "pranks")

    def __init__(self, sigma: ADEType):
        self.sigma = sigma
        self.form, self.lifts = disc_form_closed(sigma)
        self._lattice = None
        self.spec = gamma_generators(sigma)
        self.theta = tuple(_component_theta(comp)
                           for comp in self.spec.components)
        primes = {p for d in self.form.orders for p in prime_factors(d)}
        self.pranks = {p: sum(1 for d in self.form.orders if d % p == 0)
                       for p in primes}
        if sigma.euler <= 24 and group_order(self.form) > MAX_DISC_ORDER:
            raise RuntimeError(f"discriminant group of {sigma} exceeds "
                               f"{MAX_DISC_ORDER}")

    @property
    def lattice(self) -> GramLattice:
        """The root lattice, built on first use: only glued candidates
        that pass the prune and the roots check need it."""
        if self._lattice is None:
            self._lattice = GramLattice(cartan_gram(self.sigma))
        return self._lattice


@lru_cache(maxsize=None)
def _context(sigma: ADEType) -> _TypeContext:
    if sigma.is_empty:
        raise ValueError("the empty type cannot be classified")
    if sigma.rank > 18:
        raise ValueError("rank exceeds 18")
    return _TypeContext(sigma)


@lru_cache(maxsize=None)
def _dual_classes(comp: Component) -> tuple:
    """The single-component form and inverse Cartan matrix together
    with the discriminant class of each dual basis vector of the
    component lattice."""
    form, lifts = disc_form_closed(ADEType((comp,)))
    ginv = component_inverse(comp)
    e = form.exp
    n = len(ginv)
    # The exponent e kills L^vee / L, so e times a dual vector is an
    # integer vector, and two dual vectors lie in the same class exactly
    # when these agree modulo e.
    scaled = [[x * e for x in row] for row in ginv]
    if any(x.denominator != 1 for row in scaled for x in row):
        raise RuntimeError("the exponent does not clear the dual basis")
    scaled_lifts = [[int(x * e) for x in lift] for lift in lifts]
    class_of = {}
    for c in product(*(range(d) for d in form.orders)):
        key = tuple(sum(ck * lift[i] for ck, lift in zip(c, scaled_lifts))
                    % e for i in range(n))
        class_of[key] = c
    classes = []
    for j in range(n):
        found = class_of.get(tuple(int(scaled[i][j]) % e for i in range(n)))
        if found is None:
            raise RuntimeError("dual basis vector has no discriminant class")
        classes.append(found)
    return form, ginv, tuple(classes)


@lru_cache(maxsize=None)
def _component_theta(comp: Component) -> dict:
    """Per nonzero discriminant class of a single component: the
    minimal norm over the corresponding coset of the component lattice
    and the number of vectors attaining it, restricted to minima at
    most 2 (larger minima never produce roots)."""
    form, ginv, classes = _dual_classes(comp)
    if not form.orders:
        return {}
    n = len(ginv)
    d = max(form.orders)
    scaled = [[int(2 * d * ginv[i][j]) for j in range(n)] for i in range(n)]
    vectors = short_vectors(GramLattice(scaled), norm_bound=4 * d,
                            both_signs=True)
    zs = np.array(vectors, dtype=np.int64).reshape(-1, n)
    # 2d times the norm of each vector, and its discriminant class.
    nums = np.einsum("ki,ij,kj->k", zs, np.array(scaled, dtype=np.int64),
                     zs).tolist()
    cls_rows = (zs @ np.array(classes, dtype=np.int64)
                % np.array(form.orders, dtype=np.int64)).tolist()
    least: dict = {}
    for num, row in zip(nums, cls_rows):
        cls = tuple(row)
        if not any(cls):
            continue
        mu, cnt = least.get(cls, (None, 0))
        if mu is None or num < mu:
            least[cls] = (num, 1)
        elif num == mu:
            least[cls] = (mu, cnt + 1)
    return {cls: (Fraction(num, 2 * d), cnt)
            for cls, (num, cnt) in least.items()}


def _roots_stay(ctx: _TypeContext, subgroup: Iterable[FqfElement]) -> bool:
    """True when no nonzero class of the glue subgroup has coset
    minimum exactly 2, i.e. the glued lattice keeps the root type."""
    spec = ctx.spec
    two = Fraction(2)
    for h in subgroup:
        if not any(h):
            continue
        total = Fraction(0)
        blocked = False
        for ci in range(len(spec.components)):
            off = spec.gen_offsets[ci]
            piece = h[off:off + spec.gen_counts[ci]]
            if not any(piece):
                continue
            entry = ctx.theta[ci].get(piece)
            if entry is None:
                blocked = True
                break
            total += entry[0]
            if total > two:
                blocked = True
                break
        if not blocked and total == two:
            return False
    return True


@lru_cache(maxsize=None)
def _component_min_table(comp: Component) -> dict:
    """Map each component discriminant element to the minimum of its
    orbit under the component's stable automorphisms."""
    single = ADEType((comp,))
    form, _ = disc_form_closed(single)
    gens = gamma_generators(single).comp_gens[0]
    table: dict = {}
    for piece in product(*(range(d) for d in form.orders)):
        if piece in table:
            continue
        orbit = {piece}
        frontier = [piece]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = act(g, y, form.orders)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        least = min(orbit)
        for y in orbit:
            table[y] = least
    return table


def _canonical(spec, x: FqfElement) -> FqfElement:
    """Canonical orbit representative: per-component minimal image,
    then sorted within each block of equal components."""
    pieces = []
    for ci, comp in enumerate(spec.components):
        off = spec.gen_offsets[ci]
        cnt = spec.gen_counts[ci]
        pieces.append(_component_min_table(comp)[x[off:off + cnt]])
    out: list[int] = []
    for start, count in spec.blocks:
        for piece in sorted(pieces[start:start + count]):
            out.extend(piece)
    return tuple(out)


def orbit_reps_isotropic(sigma: ADEType) -> list[FqfElement]:
    """Canonical representatives of the symmetry orbits of isotropic
    discriminant classes; always contains 0."""
    ctx = _context(sigma)
    iso = isotropic_list(ctx.form)
    return sorted({_canonical(ctx.spec, x) for x in iso})


def _pair_stream(ctx: _TypeContext) -> Iterator[tuple]:
    """Yield (v, w, subgroup, factors) tuples, each literal subgroup at
    most once, covering every totally isotropic subgroup of length at
    most two up to the stable symmetries; factors are the subgroup's
    invariant factors.

    For each canonical representative v, the subgroup H = <v, w> of an
    isotropic w orthogonal to v is the union of the cosets b w + <v>,
    b < m, where m is the least positive integer with m w in <v>.  Every
    element of a coset with gcd(b, m) = 1 generates H together with v,
    so those cosets are marked done and H is built once per v.
    """
    form = ctx.form
    orders = form.orders
    iso = isotropic_list(form)
    reps = sorted({_canonical(ctx.spec, x) for x in iso})
    seen: set[frozenset] = set()
    for v in reps:
        ord_v = element_order(form, v)
        cyclic = [tuple(k * c % d for c, d in zip(v, orders))
                  for k in range(ord_v)]
        in_cyclic = set(cyclic)
        done: set[FqfElement] = set()
        for w in orthogonal_filter(form, iso, v):
            if w in done:
                continue
            cosets = []
            bw = (0,) * len(orders)
            while True:
                cosets.append([tuple(map(mod, map(add, bw, u), orders))
                               for u in cyclic])
                bw = tuple(map(mod, map(add, bw, w), orders))
                if bw in in_cyclic:
                    break
            m = len(cosets)
            for b, coset in enumerate(cosets):
                if gcd(b, m) == 1:
                    done.update(coset)
            sub = frozenset(x for coset in cosets for x in coset)
            if len(sub) != ord_v * m:
                raise RuntimeError("glue cosets overlap")
            if sub in seen:
                continue
            seen.add(sub)
            exp = lcm(ord_v, element_order(form, w))
            factors = tuple(f for f in (len(sub) // exp, exp) if f > 1)
            yield v, w, sub, factors


def glue_candidates(sigma: ADEType) -> list[GluePair]:
    """A covering family of generator pairs for the totally isotropic
    subgroups of length at most two, deduplicated by literal subgroup.

    Every such subgroup maps to the span of some listed pair under a
    stable symmetry, which preserves the acceptance verdict and the
    invariant factors; the pair (0, 0) is included.
    """
    ctx = _context(sigma)
    return [GluePair(v, w) for v, w, _, _ in _pair_stream(ctx)]


_exists_cached = lru_cache(maxsize=None)(exists_even_lattice)


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


def _glue_lift(ctx: _TypeContext, x: FqfElement) -> RatVector:
    n = ctx.sigma.rank
    return [sum((x[i] * ctx.lifts[i][j] for i in range(len(x))),
                Fraction(0)) for j in range(n)]


def _accept(ctx: _TypeContext, v: FqfElement, w: FqfElement,
            sub: frozenset, factors: FactorTuple) -> bool:
    """Decide one glue subgroup: no new roots, then existence of the
    signature (2, 18 - rank) partner for the glued form."""
    # The glued form has p-rank at least rank_p(D) - 2 rank_p(H): each
    # of restricting to the orthogonal complement of H and quotienting
    # by H lowers the p-rank by at most rank_p(H).  A lattice of rank
    # n = 2 + (18 - rank) cannot carry a form of larger p-rank.
    n = 20 - ctx.sigma.rank
    for p, rank_p in ctx.pranks.items():
        if rank_p - 2 * sum(1 for f in factors if f % p == 0) > n:
            return False
    if not _roots_stay(ctx, sub):
        return False
    gens = [g for g in (v, w) if any(g)]
    if gens:
        lattice, index = overlattice(ctx.lattice,
                                     [_glue_lift(ctx, g) for g in gens])
        if index != len(sub):
            raise RuntimeError("overlattice index disagrees with the subgroup")
        glued = lattice.disc_form()[0]
    else:
        glued = ctx.form
    return _exists_cached(2, 18 - ctx.sigma.rank, glued)


def check_pair(sigma: ADEType, pair: GluePair) -> Optional[ClassEntry]:
    """Run the acceptance test on one glue pair."""
    ctx = _context(sigma)
    for g in (pair.v, pair.w):
        if eval_q(ctx.form, g) != 0:
            raise ValueError("glue class is not isotropic")
    if eval_b(ctx.form, pair.v, pair.w) != 0:
        raise ValueError("glue classes do not pair to zero")
    sub = span(ctx.form, [pair.v, pair.w])
    factors = _invariant_factors(ctx.form, pair.v, pair.w)
    if not _accept(ctx, pair.v, pair.w, sub, factors):
        return None
    return ClassEntry(sigma, factors)


def classify_type(sigma: ADEType) -> set[FactorTuple]:
    """All torsion groups realizable together with the given type."""
    ctx = _context(sigma)
    by_factors: dict[FactorTuple, list[tuple]] = {}
    for v, w, sub, f in _pair_stream(ctx):
        by_factors.setdefault(f, []).append((v, w, sub))
    out: set[FactorTuple] = set()
    for f in sorted(by_factors):
        for v, w, sub in by_factors[f]:
            if _accept(ctx, v, w, sub, f):
                out.add(f)
                break
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
    """Reference implementation of check_pair that quotients the
    discriminant form directly and re-derives the root type by vector
    enumeration; used to cross-validate the fast path."""
    ctx = _context(sigma)
    gens = [g for g in (pair.v, pair.w) if any(g)]
    glued = subquotient(ctx.form, gens) if gens else ctx.form
    if not exists_even_lattice(2, 18 - ctx.sigma.rank, glued):
        return None
    lattice, index = overlattice(ctx.lattice,
                                 [_glue_lift(ctx, g) for g in gens])
    expected = len(span(ctx.form, gens)) if gens else 1
    if index != expected:
        raise RuntimeError("overlattice index disagrees with the subgroup")
    if root_type(lattice) != sigma:
        return None
    return ClassEntry(sigma, _invariant_factors(ctx.form, pair.v, pair.w))
