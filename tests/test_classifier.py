"""Tests for the glue-subgroup classifier: per-type torsion group
sets, orbit representatives, the coset-minimum root criterion, and
agreement between the fast path and the vector-enumeration reference
path."""

import cmath
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import getitem, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraction_views import eval_b, eval_q
from k3ade import ade_types, classifier, fqf, lattice_ops, refdata
from k3ade.ade_types import (ADEType, _component_form, cartan_gram,
                             disc_form_closed, enumerate_candidates,
                             parse_type)
from k3ade.classifier import (ClassEntry, GluePair, _candidates,
                              _component_pair_min, _context, _pair_stream,
                              _scaled_minima, check_pair, classify_all,
                              classify_type, glue_candidates,
                              slow_check_pair, verify_reference)
from k3ade.exact_linalg import prime_factors, rat_inverse, smith_normal_form
from k3ade.fqf import (discriminant_form, element_order, elements, group_order,
                       p_part, span, subquotient)
from k3ade.genus import exists_even_lattice
from k3ade.kernels import isotropic_list, orthogonal_filter
from k3ade.lattice_ops import overlattice, root_type, short_vectors
from k3ade.local_invariants import local_invariant_set
from symmetry_oracle import (ALL_COMPONENTS, act, blocks, component_gamma,
                             generated_group, layout, pieces)
from test_lattice_ops import both_signs


def T(text):
    return parse_type(text)


def pair(v, w):
    return GluePair(tuple(v), tuple(w))


# Torsion group sets recomputed here for a spread of types; values are
# frozen from runs cross-checked against the reference path.
CLASSIFY_ORACLES = {
    "A1": {()},
    "4A1": {()},
    "A5+A2+A1": {()},
    "2E8+A2": {()},
    "8A1": {(), (2,)},
    "9A1": {(), (2,)},
    "A3+6A1": {(), (2,)},
    "11A1": {(2,)},
    "12A1": {(2, 2)},
    "3A6": {(7,)},
    "2A7+A3+A1": {(8,)},
    "2A7+4A1": {(2, 4)},
    "3A5+3A1": {(2, 6)},
    "6A3": {(4, 4)},
    "8A2": {(3, 3)},
    "2A5+4A2": {(3, 3)},
    "A5+6A2": {(3, 3)},
}


class TestClassEntry:
    def test_trivial_group(self):
        entry = ClassEntry(T("A1"), ())
        assert entry.group_order == 1

    def test_group_order(self):
        assert ClassEntry(T("8A1"), (2,)).group_order == 2
        assert ClassEntry(T("12A1"), (2, 2)).group_order == 4
        assert ClassEntry(T("3A6"), (7,)).group_order == 7

    def test_too_many_factors(self):
        with pytest.raises(ValueError, match="length at most two"):
            ClassEntry(T("12A1"), (2, 2, 2))

    def test_small_factor(self):
        with pytest.raises(ValueError, match="at least 2"):
            ClassEntry(T("8A1"), (1,))

    def test_non_chain(self):
        with pytest.raises(ValueError, match="chain"):
            ClassEntry(T("3A5+3A1"), (2, 3))

    def test_order_vs_discriminant(self):
        # disc(A1) = 2 is not divisible by 2^2.
        with pytest.raises(ValueError, match="divide"):
            ClassEntry(T("A1"), (2,))


@lru_cache(maxsize=None)
def _dual_classes(comp):
    """The single-component form and inverse Cartan matrix together
    with the discriminant class of each dual basis vector of the
    component lattice."""
    form, lifts = disc_form_closed(ADEType((comp,)))
    ginv = rat_inverse(cartan_gram(ADEType((comp,))))
    e = form.exp
    n = len(ginv)
    # The lifts are dual coordinates z, each of the dual vector G^-1 z.
    # The exponent e kills L^vee / L, so e G^-1 is an integer matrix, and
    # two dual vectors lie in the same class exactly when e times them
    # agree modulo e.
    scaled = [[x * e for x in row] for row in ginv]
    assert all(x.denominator == 1 for row in scaled for x in row)
    class_of = {}
    for c in product(*(range(d) for d in form.orders)):
        z = [sum(ck * lift[i] for ck, lift in zip(c, lifts))
             for i in range(n)]
        class_of[tuple(sum(map(mul, row, z)) % e for row in scaled)] = c
    # Dual basis vector j is G^-1 e_j, column j of G^-1.
    classes = [class_of[tuple(row[j] % e for row in scaled)]
               for j in range(n)]
    return form, ginv, tuple(classes)


@lru_cache(maxsize=None)
def enumerated_minima(comp):
    """The oracle for _scaled_minima: per nonzero class, the least norm
    over its coset (minima at most 2), by enumerating the short vectors
    of the dual lattice scaled by twice the largest generator order d."""
    form, ginv, classes = _dual_classes(comp)
    if not form.orders:
        return {}
    n = len(ginv)
    d = max(form.orders)
    scaled = [[int(2 * d * ginv[i][j]) for j in range(n)] for i in range(n)]
    vectors = both_signs(short_vectors(scaled, norm_bound=4 * d))
    zs = np.array(vectors, dtype=np.int64).reshape(-1, n)
    nums = np.einsum("ki,ij,kj->k", zs, np.array(scaled, dtype=np.int64),
                     zs).tolist()
    cls_rows = (zs @ np.array(classes, dtype=np.int64)
                % np.array(form.orders, dtype=np.int64)).tolist()
    least = {}
    for num, row in zip(nums, cls_rows):
        cls = tuple(row)
        if any(cls) and num < least.get(cls, 4 * d + 1):
            least[cls] = num
    return {cls: Fraction(num, 2 * d) for cls, num in least.items()}


def scaled(mu, e):
    """A coset minimum as _scaled_minima stores it at exponent e."""
    return 2 * e + 1 if mu > 2 else mu * e


def nonzero_minima(comp, e):
    """(class, minimum) for each nonzero class of a single component,
    read from _scaled_minima at exponent e; None for a minimum above 2."""
    minima = _scaled_minima(comp, e)
    classes = product(*map(range, _component_form(comp).orders))
    return [(cls, None if x > 2 * e else Fraction(x, e))
            for cls, x in zip(classes, minima, strict=True) if any(cls)]


class TestThetaAgainstEnumeration:
    @pytest.mark.parametrize("comp", ALL_COMPONENTS,
                             ids=lambda c: f"{c[0]}{c[1]}")
    def test_closed_forms_match_short_vectors(self, comp):
        # The closed minima equal those found by enumerating the scaled
        # dual lattice, class by class, at the component's exponent and
        # at two multiples of it, and each minimum is q of its class
        # modulo 2.
        form, _ = disc_form_closed(ADEType((comp,)))
        want = enumerated_minima(comp)
        for e in (form.exp, 2 * form.exp, 6 * form.exp):
            got = dict(nonzero_minima(comp, e))
            assert {cls: mu for cls, mu in got.items()
                    if mu is not None} == want
            assert _scaled_minima(comp, e)[0] == 0
        for cls, mu in want.items():
            assert mu % 2 == eval_q(form, cls)


class TestThetaTables:
    # Each tuple is read at the component's exponent E, indexed by the
    # class code in odometer order: 0 for the zero class, E times the
    # coset minimum, and 2E + 1 above 2.

    def test_a1(self):
        assert _scaled_minima(("A", 1), 2) == (0, 1)

    def test_a2(self):
        assert _scaled_minima(("A", 2), 3) == (0, 2, 2)

    def test_d4(self):
        # The vector class (0, 1), code 1, and the spinor classes (1, 0)
        # and (1, 1), codes 2 and 3, have minimum 1.
        assert _scaled_minima(("D", 4), 2) == (0, 2, 2, 2)

    def test_d5(self):
        # Class 2 is the vector class (minimum 1), 1 and 3 the spinor
        # classes (5/4).
        assert _scaled_minima(("D", 5), 4) == (0, 5, 4, 5)

    def test_d9_drops_spinor_classes(self):
        # The spinor cosets of D9 have minimum 9/4 > 2 and read 2E + 1.
        assert _scaled_minima(("D", 9), 4) == (0, 9, 4, 9)

    def test_e7(self):
        assert _scaled_minima(("E", 7), 2) == (0, 3)

    def test_e8(self):
        # E8 has no generators: its one class, code 0, is the zero class.
        minima = _scaled_minima(("E", 8), 1)
        assert len(minima) == 1 and minima[0] == 0

    def test_integer_numerators_over_one_denominator(self):
        # The exponent E of each component's form is the one denominator
        # of its minima: l+1 for A_l, 4 or 2 for D_n with n odd or even,
        # 3, 2 and 1 for E6, E7 and E8.
        for kind, n in ALL_COMPONENTS:
            e = _component_form((kind, n)).exp
            want = (n + 1 if kind == "A" else 2 + 2 * (n % 2) if kind == "D"
                    else 9 - n)
            assert e == want, (kind, n)
            minima = _scaled_minima((kind, n), e)
            assert all(type(x) is int for x in minima)
            assert all(0 <= x <= 2 * e + 1 for x in minima)

    def test_minimum_off_the_scale_raises(self):
        # The minima 2/3 of A2 are not multiples of 1/2.
        with pytest.raises(RuntimeError, match="not a multiple of 1/2"):
            _scaled_minima(("A", 2), 2)

    @pytest.mark.parametrize("l", range(1, 19))
    def test_a_series_law(self, l):
        # Coset k of A_l has minimum k(l+1-k)/(l+1).
        e = l + 1
        assert _scaled_minima(("A", l), e) == tuple(
            scaled(Fraction(k * (l + 1 - k), l + 1), e) for k in range(l + 1))


def closed_coset_minima(comp):
    """The minima of the nonzero cosets of an irreducible D or E root
    lattice in its dual, by the closed forms of Conway-Sloane ch. 4
    (the A series is checked class by class in TestThetaTables)."""
    kind, n = comp
    if kind == "D":
        return [Fraction(1), Fraction(n, 4), Fraction(n, 4)]
    return {6: [Fraction(4, 3)] * 2, 7: [Fraction(3, 2)]}[n]


class TestDualClasses:
    @pytest.mark.parametrize("comp", ALL_COMPONENTS,
                             ids=lambda c: f"{c[0]}{c[1]}")
    def test_match_lifts(self, comp):
        # Dual basis vector j lies in class c exactly when it differs
        # from sum_k c_k lift_k by a lattice vector.  In dual coordinates
        # it is the unit vector e_j, and a vector z lies in the lattice
        # exactly when G^-1 z is integral.
        form, lifts = disc_form_closed(ADEType((comp,)))
        ginv, classes = _dual_classes(comp)[1:]
        n = comp[1]
        gram = cartan_gram(ADEType((comp,)))
        assert [[sum(ginv[i][k] * gram[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)]
        assert len(classes) == n
        for j, c in enumerate(classes):
            assert all(0 <= ck < d for ck, d in zip(c, form.orders))
            assert len(c) == len(form.orders)
            diff = [int(i == j) - sum(ck * lift[i]
                                      for ck, lift in zip(c, lifts))
                    for i in range(n)]
            assert all(sum(map(mul, row, diff)).denominator == 1
                       for row in ginv)


class TestThetaClosedForms:
    @pytest.mark.parametrize(
        "comp", [("D", n) for n in range(4, 19)] + [("E", 6), ("E", 7)],
        ids=lambda c: f"{c[0]}{c[1]}")
    def test_minima_and_counts(self, comp):
        # The minima of the nonzero classes, each with the number of
        # classes that attain it; 12 is a multiple of every exponent.
        got = _scaled_minima(comp, 12)
        assert sorted(got[1:]) == sorted(
            scaled(mu, 12) for mu in closed_coset_minima(comp))
        form, _ = disc_form_closed(parse_type(f"{comp[0]}{comp[1]}"))
        for cls, mu in nonzero_minima(comp, 12):
            if mu is not None:
                assert mu % 2 == eval_q(form, cls)


def _codes(ctx, x):
    """The per-class model of _TypeContext.code_columns: the code of
    each piece of the class x, in ctx.comps order."""
    return [x[i] * d + x[j] for i, d, j in ctx.layout]


def _is_root(ctx, x):
    """The per-class model of the root test of _TypeContext.root_free:
    the coset minima of the pieces of x sum to 2, i.e. 2E scaled."""
    return sum(map(getitem, ctx.minima, _codes(ctx, x))) == 2 * ctx.form.exp


def orbit_reps(sigma):
    """The canonical representatives of the symmetry orbits of the
    isotropic classes, as _candidates lists them; always contains 0."""
    ctx = _context(sigma)
    return [v for v, _ in _candidates(ctx, isotropic_list(ctx.form))]


class TestOrbitReps:
    def test_a1(self):
        assert orbit_reps(T("A1")) == [(0,)]

    def test_4a1(self):
        assert orbit_reps(T("4A1")) == [(0, 0, 0, 0),
                                                  (1, 1, 1, 1)]

    def test_8a1(self):
        assert orbit_reps(T("8A1")) == [
            (0,) * 8, (0,) * 4 + (1,) * 4, (1,) * 8]

    @pytest.mark.parametrize("text", ["A2", "6A1", "4A2", "D4+2A1",
                                      "A5+A2+A1"])
    def test_reps_are_isotropic_and_include_zero(self, text):
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        reps = orbit_reps(sigma)
        iso = set(isotropic_list(form))
        assert tuple([0] * len(form.orders)) in reps
        assert all(x in iso for x in reps)
        assert len(set(reps)) == len(reps)

    def test_matches_per_class_loop(self):
        # On the isotropic classes and the root-free pool of every 10th
        # type, the representatives read off the least-element mask are
        # those of the per-class loop, in the same order, and the masks
        # read by column give the (v, ws) of the per-class mask loop.
        for sigma in enumerate_candidates(18, 24)[::10]:
            ctx = _context(sigma)
            iso = isotropic_list(ctx.form)
            for xs in (iso, [x for x in iso if not _is_root(ctx, x)]):
                cands = _candidates(ctx, xs)
                assert [v for v, _ in cands] \
                    == _model_orbit_reps(sigma, xs), sigma
                assert cands == _model_candidates(ctx, xs), sigma


class TestComponentPairMin:
    @pytest.mark.parametrize("comp", ALL_COMPONENTS,
                             ids=lambda c: f"{c[0]}{c[1]}")
    def test_against_group_closure(self, comp):
        # Entry [a, b] is the least code of g b over the g with g a = a,
        # with the group closed by brute force from the oracle's
        # generator matrices, each element held as its map of every
        # class.
        classes = pieces(comp)
        group = generated_group(comp)
        table = _component_pair_min(comp)
        assert len(table) == len(classes)
        assert all(len(row) == len(classes) for row in table)
        for a, b in product(range(len(classes)), repeat=2):
            want = min(classes.index(g[b]) for g in group
                       if g[a] == classes[a])
            assert table[a][b] == want, (a, b)


@lru_cache(maxsize=None)
def _piece_orbit_min(comp, piece):
    orders = _component_form(comp).orders
    orbit, frontier = {piece}, [piece]
    while frontier:
        y = frontier.pop()
        for mat in component_gamma(comp):
            z = act(mat, y, orders)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return min(orbit)


def _model_orbit_reps(sigma, xs):
    """The per-class loop: each component piece replaced by the least
    element of its orbit, the pieces sorted within each block of equal
    components, the images deduplicated and sorted."""
    reps = set()
    for x in xs:
        least = [_piece_orbit_min(comp, x[off:off + cnt])
                 for comp, off, cnt in layout(sigma)]
        out = []
        for start, count in blocks(sigma):
            for piece in sorted(least[start:start + count]):
                out.extend(piece)
        reps.add(tuple(out))
    return sorted(reps)


def _model_candidates(ctx, pool):
    """The per-class mask loop of _candidates: each class's piece codes
    read one class at a time, its mask summed from the K x K pair-minimum
    table of each component."""
    if len(pool) == 1:
        return [(pool[0], pool)]
    comps = ctx.comps
    repeats = [c for c in range(1, len(comps)) if comps[c] == comps[c - 1]]
    pairmins = [_component_pair_min(comp) for comp in comps]
    offsets = [0]
    for pairmin in pairmins:
        offsets.append(offsets[-1] + len(pairmin))
    top = offsets.pop()
    fail_bits = [[sum(1 << (offset + a) for a, row in enumerate(pairmin)
                      if row[b] != b) for b in range(len(pairmin))]
                 for offset, pairmin in zip(offsets, pairmins)]

    def fails(xc):
        bits = sum(table[code] for table, code in zip(fail_bits, xc))
        for r, c in enumerate(repeats):
            if xc[c - 1] > xc[c]:
                bits |= 1 << (top + r)
        return bits

    def asks(vc):
        bits = sum(1 << (offset + a) for offset, a in zip(offsets, vc))
        for r, c in enumerate(repeats):
            if vc[c - 1] == vc[c]:
                bits |= 1 << (top + r)
        return bits

    codes = [_codes(ctx, x) for x in pool]
    masks = [fails(xc) for xc in codes]
    whole = asks([0] * len(comps))
    out = []
    for x, xc, bits in zip(pool, codes, masks):
        if bits & whole:
            continue
        ask = asks(xc)
        ws = [w for w, w_bits in zip(pool, masks) if not w_bits & ask]
        out.append((x, orthogonal_filter(ctx.form, ws, x)))
    return out


def _symmetry_moves(sigma):
    """Element maps generating the stable symmetry group: the
    per-component generators and adjacent swaps of equal components."""
    form, _ = disc_form_closed(sigma)
    places = layout(sigma)
    moves = []

    def comp_image(x, ci, mat):
        _, off, cnt = places[ci]
        piece = act(mat, x[off:off + cnt], form.orders[off:off + cnt])
        return x[:off] + piece + x[off + cnt:]

    def swap_image(x, ci):
        _, o1, c = places[ci]
        o2 = places[ci + 1][1]
        return x[:o1] + x[o2:o2 + c] + x[o1:o1 + c] + x[o2 + c:]

    for ci, (comp, _, _) in enumerate(places):
        for mat in component_gamma(comp):
            moves.append(lambda x, ci=ci, mat=mat: comp_image(x, ci, mat))
    for start, count in blocks(sigma):
        for ci in range(start, start + count - 1):
            moves.append(lambda x, ci=ci: swap_image(x, ci))
    return moves


def _span_orbit(moves, sub):
    orbit = {sub}
    frontier = [sub]
    while frontier:
        s = frontier.pop()
        for mv in moves:
            t = frozenset(mv(x) for x in s)
            if t not in orbit:
                orbit.add(t)
                frontier.append(t)
    return orbit


def _all_isotropic_spans(form):
    iso = isotropic_list(form)
    out = set()
    for v in iso:
        for w in iso:
            if eval_b(form, v, w) == 0:
                out.add(span(form, [v, w]))
    return out


class TestGlueCandidates:
    def test_trivial_form_single_pair(self):
        assert glue_candidates(T("2E8+A2")) == [pair((0,), (0,))]

    def test_no_generators(self):
        # E8 components add no generator: the form of 2E8 has none, and
        # its one pair and its one group are the trivial ones.
        assert glue_candidates(T("2E8")) == [pair((), ())]
        assert classify_type(T("2E8")) == {()}
        assert classify_type(T("E8")) == {()}

    @pytest.mark.parametrize("text", ["4A1", "6A1", "4A2", "D4+2A1",
                                      "2A3+2A1", "A5+A2+A1"])
    def test_pairs_are_valid_and_spans_distinct(self, text):
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        cands = glue_candidates(sigma)
        zero = tuple([0] * len(form.orders))
        assert pair(zero, zero) in cands
        spans = []
        for p in cands:
            assert eval_q(form, p.v) == 0
            assert eval_q(form, p.w) == 0
            assert eval_b(form, p.v, p.w) == 0
            spans.append(span(form, [p.v, p.w]))
        assert len(set(spans)) == len(spans)

    @pytest.mark.parametrize("text", ["6A1", "4A2", "D4+2A1", "2A3+2A1"])
    def test_covering_up_to_symmetry(self, text):
        # Every totally isotropic subgroup of length <= 2 has a stable
        # symmetry image among the listed spans.
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        listed = {span(form, [p.v, p.w]) for p in glue_candidates(sigma)}
        moves = _symmetry_moves(sigma)
        for sub in _all_isotropic_spans(form):
            assert _span_orbit(moves, sub) & listed
        assert listed <= _all_isotropic_spans(form)


def _invariant_factors(form, v, w):
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
    diag, _ = smith_normal_form(rels)
    factors = tuple(d for d in (diag[0][0], diag[1][1]) if d > 1)
    if prod(factors) != len(span(form, gens)):
        raise RuntimeError("invariant factors disagree with the span")
    return factors


def _spans_by_pair_loop(sigma):
    """The literal subgroups <v, w> over every orbit representative v
    and every isotropic w orthogonal to it, each built by fqf.span and
    mapped to one such generating pair."""
    form, _ = disc_form_closed(sigma)
    iso = isotropic_list(form)
    return {span(form, [v, w]): (v, w) for v in orbit_reps(sigma)
            for w in iso if eval_b(form, v, w) == 0}


STREAM_TYPES = ["6A3", "12A1", "8A2"] + [
    str(t) for t in enumerate_candidates(18, 24)[::37]]

# The types of STREAM_TYPES whose subgroup orbits stay small enough to
# enumerate; the orbit check takes 37 s on 8A2 and 5.6 s on D4+9A1.
ORBIT_TYPES = [t for t in STREAM_TYPES if t not in ("12A1", "8A2", "D4+9A1")]


class TestCosetStream:
    @pytest.mark.parametrize("text", STREAM_TYPES)
    def test_same_subgroups_and_factors(self, text):
        # The stream on the reduced candidates lists distinct literal
        # subgroups, each with the Smith-form invariant factors of its
        # span, and exactly the factor sets of the plain pair loop.
        sigma = T(text)
        ctx = _context(sigma)
        form = ctx.form
        iso = isotropic_list(form)
        cands = _candidates(ctx, iso)
        subs = []
        for v, w, sub, factors in _pair_stream(form, cands):
            assert sub == span(form, [v, w])
            assert factors == _invariant_factors(form, v, w)
            subs.append(sub)
        assert len(set(subs)) == len(subs)
        assert {_invariant_factors(form, v, w) for v, w in
                _spans_by_pair_loop(sigma).values()} == {
            factors for *_, factors in _pair_stream(form, cands)}
        assert [(p.v, p.w) for p in glue_candidates(sigma)] == [
            (v, w) for v, w, _, _ in _pair_stream(form, cands)]

    @pytest.mark.parametrize("text", ORBIT_TYPES)
    def test_every_subgroup_has_a_listed_image(self, text):
        # Each literal subgroup of the plain pair loop has a symmetry
        # image among the subgroups of the reduced stream: it lies in
        # the orbit of a listed one.
        sigma = T(text)
        moves = _symmetry_moves(sigma)
        images = set()
        for p in glue_candidates(sigma):
            images |= _span_orbit(moves, span(_context(sigma).form,
                                              [p.v, p.w]))
        assert set(_spans_by_pair_loop(sigma)) <= images


def _model_pair_stream(form, candidates, skip=None):
    """The subgroup stream with <v> rebuilt for every walk: each coset
    b w + <v>, b = 0 among them, made by addition, and every w of ws
    walked unless a coset of an earlier w of the same v marked it."""
    orders = form.orders
    zero = (0,) * len(orders)
    seen = set()
    for v, ws in candidates:
        multiples = {}
        u = zero
        while u not in multiples:
            multiples[u] = len(multiples)
            u = tuple((a + b) % d for a, b, d in zip(u, v, orders))
        ord_v = len(multiples)
        done = set()
        for w in ws:
            if w in done:
                continue
            shifts = [zero]
            bw = w
            while bw not in multiples:
                shifts.append(bw)
                bw = tuple((a + b) % d for a, b, d in zip(bw, w, orders))
            m = len(shifts)
            exp = lcm(ord_v, m * ord_v // gcd(multiples[bw], ord_v))
            small = m * ord_v // exp
            factors = (small, exp) if small > 1 else (exp,) if exp > 1 else ()
            if skip is not None and skip(factors):
                continue
            cosets = [[tuple((a + b) % d for a, b, d
                             in zip(shift, u, orders)) for u in multiples]
                      for shift in shifts]
            for b, coset in enumerate(cosets):
                if gcd(b, m) == 1:
                    done.update(coset)
            sub = frozenset(x for coset in cosets for x in coset)
            if sub in seen:
                continue
            seen.add(sub)
            yield v, w, sub, factors


class TestStreamAgainstModel:
    # Every 37th candidate type, on the candidates of the isotropic
    # classes and of the root-free pool.
    TYPES = enumerate_candidates(18, 24)[::37]

    @pytest.mark.parametrize("skips", [False, True],
                             ids=["no-skip", "skip-2-and-prank"])
    def test_same_yields_as_the_rebuilding_loop(self, skips):
        # With the skip hook, (2,) and the p-rank prune are passed over,
        # so <v> of order 2 is never listed and the w in it are walked
        # again for each v; without it, <v> is listed early and the w
        # in it are marked before their walk.
        covered = 0
        for sigma in self.TYPES:
            ctx = _context(sigma)
            iso = isotropic_list(ctx.form)

            def skip(factors):
                return factors == (2,) or classifier._prank_fails(ctx,
                                                                  factors)

            hook = skip if skips else None
            for xs in (iso, ctx.root_free(iso)):
                cands = _candidates(ctx, xs)
                got = list(_pair_stream(ctx.form, cands, hook))
                assert got == list(_model_pair_stream(ctx.form, cands,
                                                      hook)), sigma
                covered += len(got)
        assert len(self.TYPES) == 107
        assert covered > 0


def _refuse(*args, **kwargs):
    raise AssertionError("the fast path called a routine of the oracle")


def _walk(form, v, w):
    """(m, k): the least m > 0 with m w in <v>, and the k < ord(v) with
    m w = k v."""
    multiples = {tuple(k * c % d for c, d in zip(v, form.orders)): k
                 for k in range(element_order(form, v))}
    m = 1
    while tuple(m * c % d for c, d in zip(w, form.orders)) not in multiples:
        m += 1
    return m, multiples[tuple(m * c % d for c, d in zip(w, form.orders))]


class TestOnePairStream:
    # Pairs (v, w) with m w = k v for some m > 1 and k != 0, where the
    # stream reads ord(w) off k.
    WALK_COUNTS = {"2A3+A1": 4, "D5+A3": 4, "A7+A1": 2, "2A3+2A1": 24}

    @pytest.mark.parametrize("text", sorted(WALK_COUNTS))
    def test_every_isotropic_pair(self, text):
        # check_pair enters the stream with one arbitrary, not
        # necessarily canonical, pair; the stream must still give the
        # literal subgroup and its Smith-form invariant factors.
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        zero = (0,) * len(form.orders)
        iso = isotropic_list(form)
        pairs = [(v, w) for v in iso for w in iso if eval_b(form, v, w) == 0]
        walks = [_walk(form, v, w) for v, w in pairs]
        assert sum(m > 1 and k != 0 for m, k in walks) \
            == self.WALK_COUNTS[text]
        assert any(v == zero and w != zero for v, w in pairs)
        assert any(w not in (zero, v) and m == 1
                   for (v, w), (m, _) in zip(pairs, walks))
        for v, w in pairs:
            [(v1, w1, sub, factors)] = list(_pair_stream(form,
                                                          [(v, [w])]))
            assert (v1, w1) == (v, w)
            assert sub == span(form, [v, w])
            assert factors == _invariant_factors(form, v, w)
            entry = check_pair(sigma, pair(v, w))
            # Negative and unreduced coefficients give the same entry.
            v2 = [c - d for c, d in zip(v, form.orders)]
            w2 = [c + 2 * d for c, d in zip(w, form.orders)]
            assert check_pair(sigma, pair(v2, w2)) == entry
            if text != "2A3+2A1":
                assert entry == slow_check_pair(sigma, pair(v, w))

    @pytest.mark.parametrize("text", ["6A3", "8A1", "12A1"])
    def test_check_pair_without_span(self, monkeypatch, text):
        sigma = T(text)
        pairs = glue_candidates(sigma)
        want = [check_pair(sigma, p) for p in pairs]
        monkeypatch.setattr(fqf, "span", _refuse)
        assert [check_pair(sigma, p) for p in pairs] == want
        assert {e.group for e in want if e is not None} \
            == CLASSIFY_ORACLES[text]


class TestCheckPair:
    def test_zero_pair_trivial_group(self):
        entry = check_pair(T("A1"), pair((0,), (0,)))
        assert entry == ClassEntry(T("A1"), ())

    def test_seven_torsion(self):
        entry = check_pair(T("3A6"), pair((1, 2, 4), (0, 0, 0)))
        assert entry == ClassEntry(T("3A6"), (7,))

    def test_two_torsion(self):
        entry = check_pair(T("8A1"), pair((1,) * 8, (0,) * 8))
        assert entry == ClassEntry(T("8A1"), (2,))

    def test_rejected_by_new_roots(self):
        # Gluing half the classes produces norm-2 vectors: the coset
        # minima sum to exactly 2.
        assert check_pair(T("8A1"), pair((1,) * 4 + (0,) * 4,
                                         (0,) * 8)) is None
        assert check_pair(T("4A1"), pair((1,) * 4, (0,) * 4)) is None
        # The order-6 glue of A5+A2+A1 fills the root system out to E8.
        assert check_pair(T("A5+A2+A1"), pair((1, 1, 1), (0, 0, 0))) is None

    def test_two_generator_group(self):
        entry = check_pair(T("12A1"),
                           pair((1,) * 8 + (0,) * 4,
                                (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1)))
        assert entry == ClassEntry(T("12A1"), (2, 2))

    def test_non_isotropic_rejected(self):
        with pytest.raises(ValueError, match="not isotropic"):
            check_pair(T("A1"), pair((1,), (0,)))
        with pytest.raises(ValueError, match="not isotropic"):
            check_pair(T("4A1"), pair((1, 1, 1, 1), (1, 0, 0, 0)))

    @pytest.mark.parametrize("v,w", [((1, 1, 1, 1), (0,)),
                                     ((1,) * 6, (0,) * 4)])
    def test_wrong_length_rejected_by_both_routes(self, v, w):
        # A short all-zero class, and a long nonzero one that a lift
        # would cut short: both routes refuse the pair rather than
        # answer for another.
        for check in (check_pair, slow_check_pair):
            with pytest.raises(ValueError, match="wrong number"):
                check(T("4A1"), pair(v, w))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="pair to zero"):
            check_pair(T("8A1"), pair((1, 1, 1, 1, 0, 0, 0, 0),
                                      (0, 0, 0, 1, 1, 1, 1, 0)))

    def test_swap_symmetric(self):
        sigma = T("12A1")
        v = (1,) * 8 + (0,) * 4
        w = (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1)
        assert check_pair(sigma, pair(v, w)) == check_pair(sigma, pair(w, v))


class TestClassifyType:
    @pytest.mark.parametrize("text,groups",
                             sorted(CLASSIFY_ORACLES.items()))
    def test_oracle(self, text, groups):
        assert classify_type(T(text)) == groups

    def test_euler_overflow_is_empty(self):
        # 13A1 passes the rank bound but not the fiber-count bound; no
        # transcendental partner exists for any glue subgroup.
        assert classify_type(T("13A1")) == set()

    def test_rejects_rank_19(self):
        with pytest.raises(ValueError, match="rank"):
            classify_type(T("D19"))

    def test_entries_validate(self):
        for text, groups in CLASSIFY_ORACLES.items():
            for g in groups:
                ClassEntry(T(text), g)


def enumerated_norm(sigma, x):
    """The sum over the components of the enumerated coset minima of the
    pieces of the class x; None when a piece has minimum above 2."""
    total = Fraction(0)
    for comp, off, cnt in layout(sigma):
        piece = x[off:off + cnt]
        if any(piece):
            mu = enumerated_minima(comp).get(piece)
            if mu is None:
                return None
            total += mu
    return total


def _prank_bound(sigma, form, factors):
    n = 20 - sigma.rank
    for p in {p for d in form.orders for p in prime_factors(d)}:
        rank = sum(1 for d in form.orders if d % p == 0)
        if rank - 2 * sum(1 for f in factors if f % p == 0) > n:
            return False
    return True


def eager_classify(sigma):
    """The eager loop that classify_type replaced, as (accepted factors,
    genus questions asked).  Every subgroup of the stream on all the
    isotropic classes, with every orthogonal w for each orbit
    representative v, is built and grouped by its invariant factors;
    the groups are then decided in sorted order, each up to its first
    accepted subgroup.  Roots are found from the enumerated minima."""
    form = _context(sigma).form
    iso = isotropic_list(form)
    norms = {x: enumerated_norm(sigma, x) for x in iso}
    by_factors = {}
    for v, w, sub, f in _pair_stream(form, [
            (v, orthogonal_filter(form, iso, v))
            for v in orbit_reps(sigma)]):
        by_factors.setdefault(f, []).append((v, w, sub))
    out, asked = set(), 0
    for f in sorted(by_factors):
        if not _prank_bound(sigma, form, f):
            continue
        for v, w, sub in by_factors[f]:
            if any(norms[h] == 2 for h in sub):
                continue
            asked += 1
            if exists_even_lattice(2, 18 - sigma.rank,
                                   subquotient(form, (v, w))):
                out.add(f)
                break
    return out, asked


class TestRootFreePool:
    def test_pool_drops_exactly_the_norm_two_classes(self):
        # The root test against coset minima found by enumerating
        # short vectors, on every 7th type and every single component.
        types = (enumerate_candidates(18, 24)[::7]
                 + [ADEType((comp,)) for comp in ALL_COMPONENTS])
        dropped = 0
        for sigma in types:
            ctx = _context(sigma)
            iso = isotropic_list(ctx.form)
            mask = [not _is_root(ctx, x) for x in iso]
            assert mask == [enumerated_norm(sigma, x) != 2 for x in iso], \
                sigma
            assert ctx.root_free(iso) == [x for x, keep in zip(iso, mask)
                                          if keep], sigma
            dropped += mask.count(False)
        assert len(types) == 563 + 36
        assert dropped > 0

    def test_check_pair_reads_the_pool_table(self, monkeypatch):
        # A root class of the context's root test rejects its one-class
        # subgroup; with the minima patched to 0, so that no class is a
        # root class, it is accepted.
        sigma = T("A7+A1")
        ctx = _context(sigma)
        iso = isotropic_list(ctx.form)
        root = next(x for x in iso if _is_root(ctx, x))
        zero = (0,) * len(ctx.form.orders)
        assert check_pair(sigma, pair(root, zero)) is None
        monkeypatch.setattr(ctx, "minima",
                            tuple((0,) * len(m) for m in ctx.minima))
        assert check_pair(sigma, pair(root, zero)) is not None


class TestLazyLoop:
    # Over the 197 types of every 20th candidate: the subgroups the
    # stream builds and yields to classify_type, the partner questions
    # it decides, and the ones of those the length count leaves to the
    # genus decision.
    TABLE_COUNTS = (368, 188, 83)
    # The genus questions of eager_classify, which reads every orthogonal
    # w for each representative v, on the same types.
    EAGER_ASKED = 189

    @pytest.mark.parametrize("start", range(0, 25, 5))
    def test_matches_eager_loop(self, start):
        for sigma in enumerate_candidates(18, 24)[start::25]:
            assert classify_type(sigma) == eager_classify(sigma)[0], sigma

    def test_pinned_counts(self, monkeypatch):
        stream = classifier._pair_stream
        partner, exists = classifier._partner_exists, classifier._exists_cached
        counts = [0, 0, 0]

        def counted_stream(*args):
            for item in stream(*args):
                counts[0] += 1
                yield item

        def counted(slot, fn):
            def call(*args):
                counts[slot] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(classifier, "_pair_stream", counted_stream)
        monkeypatch.setattr(classifier, "_partner_exists",
                            counted(1, partner))
        monkeypatch.setattr(classifier, "_exists_cached", counted(2, exists))
        types = enumerate_candidates(18, 24)[::20]
        for sigma in types:
            classify_type(sigma)
        monkeypatch.undo()
        assert len(types) == 197
        assert tuple(counts) == self.TABLE_COUNTS
        assert sum(eager_classify(t)[1] for t in types) == self.EAGER_ASKED


class TestLowRankClassification:
    def test_ranks_up_to_nine(self):
        # Every candidate of rank <= 9 is realizable with the trivial
        # group, and only 8A1, 9A1 and A3+6A1 also admit a nontrivial
        # group (a 2-torsion section).
        entries = classify_all(max_rank=9)
        assert len(entries) == 160
        per_rank = [0] * 9
        nontrivial = {}
        trivial = set()
        for e in entries:
            per_rank[e.type.rank - 1] += 1
            if e.group:
                nontrivial.setdefault(e.type, set()).add(e.group)
            else:
                trivial.add(e.type)
        assert per_rank == [1, 2, 3, 6, 9, 16, 24, 40, 59]
        assert len(trivial) == 157
        assert {str(t) for t in nontrivial} == {"8A1", "9A1", "A3+6A1"}
        assert all(gs == {(2,)} for gs in nontrivial.values())
        assert all(t in trivial for t in nontrivial)

    def test_sorted_output(self):
        entries = classify_all(max_rank=9)
        keys = [(e.type.sort_key(), e.group_order, e.group)
                for e in entries]
        assert keys == sorted(keys)


class TestLatticeFreeFastPath:
    @pytest.mark.parametrize("text", ["6A3", "8A2", "12A1", "4A4"])
    def test_classify_without_lattice_routines(self, monkeypatch, text):
        # With the explicit-lattice routines made to fail, fresh type
        # contexts and the whole decision still give the published groups.
        monkeypatch.setattr(classifier, "overlattice", _refuse)
        monkeypatch.setattr(classifier, "root_type", _refuse)
        monkeypatch.setattr(lattice_ops, "short_vectors", _refuse)
        classifier.clear_caches()
        try:
            sigma = T(text)
            published = {g for t, g in refdata.load_reference_pairs()
                         if t == sigma}
            assert published
            assert classify_type(sigma) == published
        finally:
            classifier.clear_caches()


class TestClearCaches:
    def test_every_memo_table_empties(self):
        # Every lru_cache and every *_CACHE table of the package, found
        # by scanning the modules, so a memo added later is covered too.
        classify_type(T("2A3"))
        exists_even_lattice(3, 1, disc_form_closed(T("A3"))[0])
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("k3ade.")]
        memos = {id(v): v for m in modules for v in vars(m).values()
                 if callable(getattr(v, "cache_info", None))}
        tables = {id(v): v for m in modules
                  for name, v in vars(m).items()
                  if name.endswith("_CACHE") and isinstance(v, dict)}
        assert any(m.cache_info().currsize for m in memos.values())
        assert any(tables.values())
        classifier.clear_caches()
        assert [m for m in memos.values() if m.cache_info().currsize] == []
        assert [t for t in tables.values() if t] == []

    def test_component_forms_empty(self):
        classifier.clear_caches()
        classify_type(T("E7+D5+A3"))
        assert ade_types._component_form.cache_info().currsize == 3
        classifier.clear_caches()
        assert ade_types._component_form.cache_info().currsize == 0

    @pytest.mark.parametrize("text", ["2A3", "E7+D5+A3", "2D4+E6+A1"])
    def test_cold_fast_path_builds_no_lift(self, monkeypatch, text):
        # The type context reads the closed forms only: no generator
        # lift is made.
        monkeypatch.setattr(ade_types, "_component_nodes", _refuse)
        classifier.clear_caches()
        try:
            classify_type(T(text))
        finally:
            classifier.clear_caches()

    @pytest.mark.parametrize("text,run", [
        ("E7+D5+A3", classify_type), ("2D4+E6+A1", classify_type),
        ("2E8+A2", glue_candidates)], ids=["E7+D5+A3", "2D4+E6+A1",
                                           "2E8+A2-candidates"])
    def test_one_class_pool_builds_no_symmetry_table(self, text, run):
        # The root-free pool of the first two types and the isotropic
        # classes of the last are only 0, so no symmetry is read.
        classifier.clear_caches()
        try:
            run(T(text))
            assert classifier._component_fail_bits.cache_info().currsize == 0
        finally:
            classifier.clear_caches()


def _gauss_sum(form):
    return sum(cmath.exp(1j * cmath.pi * eval_q(form, x))
               for x in elements(form))


def _glued_form_cases(seed, types, per_type=3):
    """Seeded glue subgroups <v, w> of the given types: (sigma, v, w)."""
    rng = random.Random(f"glued-forms:{seed}")
    cases = []
    for sigma in types:
        form, _ = disc_form_closed(sigma)
        iso = isotropic_list(form)
        for _ in range(per_type):
            v = rng.choice(iso)
            w = rng.choice(orthogonal_filter(form, iso, v))
            cases.append((sigma, v, w))
    return cases


SMALL_DISC_TYPES = [t for t in enumerate_candidates(18, 24)
                    if group_order(disc_form_closed(t)[0]) <= 1024]


class TestGluedFormRoutes:
    @pytest.mark.parametrize("seed", range(3))
    def test_subquotient_matches_overlattice(self, seed):
        # The fast route's H^perp / H against the discriminant form of the
        # explicit overlattice, on seeded subgroups of the types whose
        # discriminant group has order at most 1024.
        rng = random.Random(f"glued-types:{seed}")
        types = rng.sample(SMALL_DISC_TYPES, 40)
        checked = 0
        for sigma, v, w in _glued_form_cases(seed, types):
            form, lifts = disc_form_closed(sigma)
            gens = [g for g in (v, w) if any(g)]
            fast = subquotient(form, gens)

            def lift(x):
                # The dual coordinates of the class x.
                return [sum(c * z[j] for c, z in zip(x, lifts))
                        for j in range(sigma.rank)]

            over, factors = overlattice(cartan_gram(sigma),
                                        [lift(g) for g in gens])
            slow = discriminant_form(over)[0]
            assert factors == _invariant_factors(form, v, w)
            assert prod(factors) == len(span(form, gens))
            assert group_order(fast) == group_order(slow)
            assert group_order(fast) * prod(factors) ** 2 == group_order(form)
            for p in prime_factors(group_order(fast)):
                for n in (len(fast.orders), 20 - sigma.rank):
                    assert (local_invariant_set(p, n, p_part(fast, p))
                            == local_invariant_set(p, n, p_part(slow, p)))
            assert abs(_gauss_sum(fast) - _gauss_sum(slow)) < 1e-6
            checked += 1
        assert checked == 120

    def test_rejects_non_isotropic_subgroup(self):
        form, _ = disc_form_closed(T("6A3"))
        anisotropic = next(x for x in elements(form)
                           if eval_q(form, x) != 0)
        with pytest.raises(ValueError, match="not totally isotropic"):
            subquotient(form, [anisotropic])
        v = (2, 2, 0, 0, 0, 0)
        w = next(x for x in isotropic_list(form) if eval_b(form, v, x))
        assert eval_q(form, v) == 0
        with pytest.raises(ValueError, match="not totally isotropic"):
            subquotient(form, [v, w])


class TestFastSlowAgreement:
    @pytest.mark.parametrize("text", ["8A1", "4A2", "2A3+2A1",
                                      "A5+A2+A1", "D4+2A1", "2A5",
                                      "A7+2A1", "2D4"])
    def test_every_candidate_pair(self, text):
        sigma = T(text)
        for p in glue_candidates(sigma):
            assert check_pair(sigma, p) == slow_check_pair(sigma, p)


class TestSymmetryInvariance:
    @pytest.mark.parametrize("text", ["6A1", "4A2", "D4+2A1",
                                      "A5+A2+A1"])
    def test_verdict_constant_on_orbits(self, text):
        sigma = T(text)
        moves = _symmetry_moves(sigma)
        for p in glue_candidates(sigma):
            want = check_pair(sigma, p)
            for mv in moves:
                got = check_pair(sigma, pair(mv(p.v), mv(p.w)))
                if want is None:
                    assert got is None
                else:
                    assert got == want


class TestBruteForceAgreement:
    @pytest.mark.parametrize("text", ["4A1", "2A2", "A3+A1", "2A3",
                                      "6A1", "4A2", "D4+2A1", "2A3+2A1",
                                      "A5+A2+A1"])
    def test_group_set_matches_exhaustive_scan(self, text):
        # Reference-path verdicts over every isotropic subgroup of
        # length <= 2, with no symmetry reduction.
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        iso = isotropic_list(form)
        seen = {}
        for v in iso:
            for w in iso:
                if eval_b(form, v, w) != 0:
                    continue
                sub = span(form, [v, w])
                if sub not in seen:
                    seen[sub] = (v, w)
        groups = set()
        for v, w in seen.values():
            entry = slow_check_pair(sigma, pair(v, w))
            if entry is not None:
                groups.add(entry.group)
        assert groups == classify_type(sigma)


class TestLengthThreeSubgroups:
    def test_no_length_three_glue_passes(self):
        # Any three independent isotropic glue classes of 12A1 span a
        # subgroup whose overlattice either gains roots or has no
        # signature (2, 6) partner; sections of length-3 groups never
        # occur.
        sigma = T("12A1")
        form, lifts = disc_form_closed(sigma)
        base = cartan_gram(sigma)
        weight8 = [v for v in isotropic_list(form)
                   if sum(v) == 8]
        triples = []
        for a, b, c in combinations(sorted(weight8), 3):
            if eval_b(form, a, b) or eval_b(form, a, c) \
                    or eval_b(form, b, c):
                continue
            if len(span(form, [a, b, c])) != 8:
                continue
            triples.append((a, b, c))
            if len(triples) == 5:
                break
        assert triples

        def lift(x):
            return [sum(x[i] * lifts[i][j] for i in range(12))
                    for j in range(12)]

        for gens in triples:
            glued = subquotient(form, list(gens))
            ok_genus = exists_even_lattice(2, 6, glued)
            over, factors = overlattice(base, [lift(g) for g in gens])
            assert factors == (2, 2, 2)
            assert not (ok_genus and root_type(over) == sigma)


class TestVerifyReference:
    def entries(self):
        return classify_all(max_rank=3)

    def test_self_diff_empty(self):
        entries = self.entries()
        ref = [(e.type, e.group) for e in entries]
        assert verify_reference(entries, ref) == []

    def test_extra_row(self):
        entries = self.entries()
        ref = [(e.type, e.group) for e in entries[:-1]]
        diff = verify_reference(entries, ref)
        assert diff == [("extra", entries[-1].type, entries[-1].group)]

    def test_missing_and_mismatch(self):
        entries = self.entries()
        ref = [(e.type, e.group) for e in entries]
        ref[0] = (ref[0][0], (2,))
        diff = verify_reference(entries, ref)
        t = entries[0].type
        assert ("missing", t, (2,)) in diff
        assert ("extra", t, ()) in diff
        assert ("group-mismatch", t, (((),), ((2,),))) in diff
        assert len(diff) == 3


def _agreement_pool():
    pool = []
    for text in ["6A1", "4A2", "A5+A2+A1"]:
        sigma = T(text)
        form, _ = disc_form_closed(sigma)
        iso = isotropic_list(form)
        for v in iso:
            for w in iso:
                if eval_b(form, v, w) == 0:
                    pool.append((sigma, v, w))
    return pool


AGREEMENT_POOL = _agreement_pool()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(AGREEMENT_POOL))
def test_fast_slow_agreement_random(case):
    sigma, v, w = case
    assert check_pair(sigma, pair(v, w)) == slow_check_pair(sigma, pair(v, w))
