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
sum of the textbook coset minima of the A, D and E components
(Conway-Sloane, SPLAG ch. 4).  _scaled_minima reads them from their
closed forms, held as integers scaled by the exponent E of the
discriminant group D.  A nonzero class whose sum is exactly 2E is a
root class, and a subgroup gains roots exactly when it holds one.
The test is asked only of isotropic classes, since the glue subgroup
H is totally isotropic: each type context reads the minima of the
component pieces by their codes, one column of codes per component
over all the isotropic classes at once, and the isotropic classes that
are not root classes form the root-free pool.

There are two routes.  The fast one works on integers in D alone.
_pair_stream walks b w, b < m, until m w lands in <v>; the walk gives
the invariant factors of H = <v, w>, and a skip hook passes over the
pair on them before H is built from the cosets of <v>.  The coset
b = 0 is <v> itself, built once per v; and once <v> has been listed,
every w in <v>, which gives H = <v> again, is marked done before its
walk.  classify_type is one lazy loop over the stream on the reduced pairs of the pool
(below): it skips factors already accepted or failing the p-rank prune,
requires H inside the pool, then asks for the partner of the glued form
H^perp / H from fqf.subquotient.  That form comes from two Smith
eliminations on integers, which build their inverse transforms step by
step, so the fast route inverts no matrix.  check_pair runs the same
tests on one pair.  The oracle, slow_check_pair, builds the explicit
overlattice M, takes the glued form from its Gram matrix and finds its
roots by vector enumeration.  It reads the invariant factors of H off
M itself, since M/L is H (Nikulin 1979, Prop. 1.4.1):
lattice_ops.overlattice takes them from the Smith form of the Hermite
basis it builds M on, so the oracle walks no subgroup of D.  The tests
compare the two routes.

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
with a kept w.  Both choices AND one bit mask per class, made once
per pool from the columns of piece codes of the transposed pool, with
one mask per v (see _candidates).

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
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm, prod
from operator import add, mod, mul
from typing import Iterable, Iterator, Optional

from . import ade_types, genus, lattice_ops, local_invariants
from .ade_types import (ADEType, Component, _component_form,
                        _component_group, cartan_gram, closed_form,
                        disc_form_closed, disc_order, enumerate_candidates)
from .exact_linalg import prime_factors
from .fqf import (FiniteQuadraticForm, FqfElement, _b_scaled, _q_scaled,
                  _reduce, discriminant_form, group_order, subquotient)
from .genus import exists_even_lattice
from .kernels import isotropic_list, orthogonal_filter
from .lattice_ops import overlattice, root_type

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
    __slots__ = ("sigma", "n", "form", "comps", "layout", "minima",
                 "pranks")

    def __init__(self, sigma: ADEType):
        self.sigma = sigma
        # The rank of the transcendental partner, signature (2, 18 - rank).
        self.n = 20 - sigma.rank
        self.form = closed_form(sigma)
        e, orders = self.form.exp, self.form.orders
        # The components with generators (an E8 has none: its one class
        # is 0, with minimum 0), and for each the (i, d, j) that give the
        # code x_i d + x_j of its piece of a class x, in the odometer
        # order of the piece: (i, 0, i) for one generator, (i, d_{i+1},
        # i + 1) for two (the two of order 2 of a D_n with n even).
        self.comps, self.layout = [], []
        start = 0
        for comp in sigma.components:
            width = len(_component_form(comp).orders)
            if width:
                self.comps.append(comp)
                self.layout.append((start, 0, start) if width == 1 else
                                   (start, orders[start + 1], start + 1))
            start += width
        # E times the coset minima of each piece, indexed by its code.
        self.minima = tuple(_scaled_minima(comp, e) for comp in self.comps)
        primes = {p for d in orders for p in prime_factors(d)}
        self.pranks = {p: sum(1 for d in orders if d % p == 0)
                       for p in primes}
        if sigma.euler <= 24 and group_order(self.form) > MAX_DISC_ORDER:
            raise RuntimeError(f"discriminant group of {sigma} exceeds "
                               f"{MAX_DISC_ORDER}")

    def code_columns(self, xs: list[FqfElement]) -> list:
        """The codes of the pieces of the classes xs by column: one
        column per component, in self.comps order, with one code per
        class, x_i d + x_j for each (i, d, j) of self.layout."""
        cols = list(zip(*xs))
        return [cols[i] if not d else
                [a * d + b for a, b in zip(cols[i], cols[j])]
                for i, d, j in self.layout]

    def root_free(self, xs: list[FqfElement]) -> list[FqfElement]:
        """The classes of xs that are not root classes: a root class is
        one whose sum of the coset minima of its pieces is 2, i.e. 2E
        scaled.  The sums are taken column by column."""
        sums = _column_sum(self.minima, self.code_columns(xs), len(xs))
        two = 2 * self.form.exp
        return [x for x, total in zip(xs, sums) if total != two]


def _column_sum(tables, columns, size: int) -> list[int]:
    """Entry by entry, the sum over the columns of table[code] for the
    codes down each column, with one table per column."""
    total = [0] * size
    for table, column in zip(tables, columns):
        total = list(map(add, total, map(table.__getitem__, column)))
    return total


@lru_cache(maxsize=None)
def _context(sigma: ADEType) -> _TypeContext:
    if sigma.is_empty:
        raise ValueError("the empty type cannot be classified")
    if sigma.rank > 18:
        raise ValueError("rank exceeds 18")
    return _TypeContext(sigma)


@lru_cache(maxsize=None)
def _scaled_minima(comp: Component, e: int) -> tuple[int, ...]:
    """E times the coset minimum of each discriminant class of a single
    component, indexed by the code of the class (its number in the
    odometer order of the generators of _component_form): 0 for the
    zero class and 2E + 1 for a minimum above 2, which never makes a
    root.

    The minima are the closed forms of Conway-Sloane (SPLAG ch. 4):
    class k of A_l has minimum k(l+1-k)/(l+1); the vector class of D_n
    has minimum 1 and each spinor class n/4; the nonzero classes of E6
    have 4/3 and that of E7 has 3/2.
    """
    kind, n = comp
    # Each minimum as (numerator, denominator).
    if kind == "A":
        minima = [(k * (n + 1 - k), n + 1) for k in range(n + 1)]
    elif kind == "D":
        # For odd n one generator of order 4, the dual of the spinor
        # node 1, and 2 is the vector class; for even n the duals of
        # node 1 and of the chain end n, and (0, 1) is the vector class.
        spinor = (n, 4)
        minima = ([(0, 1), spinor, (1, 1), spinor] if n % 2
                  else [(0, 1), (1, 1), spinor, spinor])
    else:
        minima = {6: [(0, 1), (4, 3), (4, 3)], 7: [(0, 1), (3, 2)],
                  8: [(0, 1)]}[n]
    scaled = []
    for num, den in minima:
        if num > 2 * den:
            scaled.append(2 * e + 1)
        elif num * e % den:
            raise RuntimeError(f"coset minimum {num}/{den} of "
                               f"{comp} is not a multiple of 1/{e}")
        else:
            scaled.append(num * e // den)
    return tuple(scaled)


def _component_pair_min(comp: Component) -> tuple[tuple[int, ...], ...]:
    """The K x K table of a single component whose entry [a, b] is the
    least code of g b over its stable symmetries g with g a = a (see
    _component_group).  Row 0 holds the least code of each orbit, since
    every g fixes 0."""
    group = _component_group(comp)
    size = len(group[0])
    return tuple(tuple(min(g[b] for g in group if g[a] == a)
                       for b in range(size)) for a in range(size))


@lru_cache(maxsize=None)
def _component_fail_bits(comp: Component) -> tuple[int, ...]:
    """For each code b of a single component, the mask with bit a set
    when pairmin[a][b] != b, pairmin being _component_pair_min(comp):
    the codes a of a piece of v under whose stabiliser b is not least
    (see _candidates)."""
    pairmin = _component_pair_min(comp)
    return tuple(sum(1 << a for a, row in enumerate(pairmin) if row[b] != b)
                 for b in range(len(pairmin)))


def _candidates(ctx: _TypeContext,
                pool: list[FqfElement]) -> list[tuple]:
    """(v, ws) for each canonical representative v of the symmetry
    orbits met in the pool, with the w of the pool orthogonal to v that
    are least in their orbit under Stab'(v), both in pool order.

    The pool must be sorted, hold 0 and be closed under the symmetries,
    as the isotropic classes and the root-free pool are; the
    representatives are then the elements of the pool that are least
    in their orbit, since Stab'(0) is the whole group.

    Whether w is least in its orbit under Stab'(v), for a canonical v,
    is one AND of two bit masks.  The least image of w takes the pair
    minimum of each piece and sorts the pieces inside each run of equal
    (component, v-piece); pairmin[a][b] <= b, since the identity fixes
    a.  So w, with piece codes w_c, is least exactly when every w_c is
    pairmin[v_c][w_c] and, inside each such run, the w-pieces do not
    decrease.  Each class x gets a mask with bit (c, a) set when
    pairmin[a][x_c] != x_c and bit r set when x's pieces decrease at
    the r-th repeated component; v asks for the bits (c, v_c) and for
    the r at which its own pieces agree.

    The masks are read by column (_TypeContext.code_columns): the pool
    is transposed once, the bits (c, a) of every class are the sum over
    the components of their _component_fail_bits, shifted to the
    component's place, and the bit r compares two columns.  The ws
    keep the w in <v>, which all give H = <v>; _pair_stream walks them
    only until <v> is listed.
    """
    if len(pool) == 1:
        # A pool of one class holds only 0.
        return [(pool[0], pool)]
    comps = ctx.comps
    repeats = [c for c in range(1, len(comps)) if comps[c] == comps[c - 1]]
    fail_bits = list(map(_component_fail_bits, comps))
    # Bit offsets[c] + a stands for (c, a), bit top + r for repeat r.
    offsets = [0, *accumulate(map(len, fail_bits))]
    top = offsets.pop()
    columns = ctx.code_columns(pool)
    masks = _column_sum([[bits << offset for bits in table] for offset, table
                         in zip(offsets, fail_bits)], columns, len(pool))
    for r, c in enumerate(repeats):
        bit = 1 << (top + r)
        masks = [bits | bit if a > b else bits for bits, a, b
                 in zip(masks, columns[c - 1], columns[c])]

    def asks(vc: tuple[int, ...]) -> int:
        bits = sum(1 << (offset + a) for offset, a in zip(offsets, vc))
        for r, c in enumerate(repeats):
            if vc[c - 1] == vc[c]:
                bits |= 1 << (top + r)
        return bits

    whole = asks((0,) * len(comps))
    out = []
    for x, xc, bits in zip(pool, zip(*columns), masks):
        if bits & whole:
            continue
        ask = asks(xc)
        ws = [w for w, w_bits in zip(pool, masks) if not w_bits & ask]
        out.append((x, orthogonal_filter(ctx.form, ws, x)))
    return out


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
    cosets are marked done and H is built once per v.  The coset b = 0
    is <v>, listed once per v, and when <v> itself was listed by an
    earlier v, its elements are marked done before any walk.
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
        cyclic = list(multiples)
        # Every w in <v> gives H = <v>; once <v> is listed, none of them
        # is walked.  A skipped <v> is never listed.
        done: set[FqfElement] = (set(cyclic) if frozenset(cyclic) in seen
                                 else set())
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
            if ord_v == 1:
                cosets = [[shift] for shift in shifts]
            else:
                cosets = [cyclic] + [
                    [tuple(map(mod, map(add, shift, u), orders))
                     for u in cyclic] for shift in shifts[1:]]
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
    for memo in (_context, _scaled_minima, _component_fail_bits,
                 _exists_cached, genus._local_data,
                 local_invariants.unimodular_set, ade_types._component_gram,
                 ade_types._component_form, ade_types._allowed_replacements):
        memo.cache_clear()
    for table in (local_invariants._SET_CACHE, local_invariants._REC_CACHE,
                  lattice_ops._ROOT_TYPE_CACHE):
        table.clear()


def _glue_lift(lifts: list[list[int]], x: FqfElement) -> list[int]:
    """The dual coordinates of the class x: x times the generator lifts."""
    return [sum(map(mul, x, col)) for col in zip(*lifts)]


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
    v, w = (_reduce(form, g) for g in (pair.v, pair.w))
    if _q_scaled(form, v) or _q_scaled(form, w):
        raise ValueError("glue class is not isotropic")
    if _b_scaled(form, v, w):
        raise ValueError("glue classes do not pair to zero")
    _, _, sub, factors = next(_pair_stream(form, [(v, [w])]))
    if (_prank_fails(ctx, factors)
            or len(ctx.root_free(list(sub))) < len(sub)
            or not _partner_exists(ctx, v, w, sub)):
        return None
    return ClassEntry(sigma, factors)


def classify_type(sigma: ADEType) -> set[FactorTuple]:
    """All torsion groups realizable together with the given type, by
    one lazy loop over the root-free pool (see the module docstring)."""
    ctx = _context(sigma)
    pool = ctx.root_free(isotropic_list(ctx.form))
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
    entries = [ClassEntry(sigma, factors)
               for sigma in enumerate_candidates(max_rank, max_euler)
               for factors in classify_type(sigma)]
    entries.sort(key=lambda e: (e.type.sort_key(), e.group_order, e.group))
    return entries


def group_sets(pairs: Iterable[tuple[ADEType, FactorTuple]]
               ) -> dict[ADEType, set[FactorTuple]]:
    """The set of groups of each type among (type, group) pairs."""
    by_type: dict[ADEType, set[FactorTuple]] = {}
    for t, g in pairs:
        by_type.setdefault(t, set()).add(g)
    return by_type


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
    got_by_type, ref_by_type = group_sets(got), group_sets(ref)
    for t in sorted(set(got_by_type) & set(ref_by_type),
                    key=ADEType.sort_key):
        if got_by_type[t] != ref_by_type[t]:
            diff.append(("group-mismatch", t,
                         (tuple(sorted(got_by_type[t])),
                          tuple(sorted(ref_by_type[t])))))
    return diff


def slow_check_pair(sigma: ADEType, pair: GluePair) -> Optional[ClassEntry]:
    """Reference implementation of check_pair that builds the glued
    overlattice explicitly, takes the glued form from its Gram matrix,
    re-derives the root type by vector enumeration and reads the
    invariant factors of the glue group off the overlattice.  It shares
    no code that builds the glued form or the subgroup with the fast
    path; used to cross-validate it."""
    form, lifts = disc_form_closed(sigma)
    # Reduced first, so that a class of the wrong length is refused
    # rather than cut short by the lift.
    gens = [g for g in (_reduce(form, pair.v), _reduce(form, pair.w))
            if any(g)]
    glued, factors = overlattice(cartan_gram(sigma),
                                 [_glue_lift(lifts, g) for g in gens])
    if not exists_even_lattice(2, 18 - sigma.rank,
                               discriminant_form(glued)[0]):
        return None
    if root_type(glued) != sigma:
        return None
    return ClassEntry(sigma, factors)
