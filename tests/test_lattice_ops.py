"""Tests for overlattice construction, short-vector enumeration, and
root-type identification."""

import random
from fractions import Fraction
from itertools import product
from math import floor, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from k3ade.ade_types import cartan_gram, disc_form_closed, parse_type
from k3ade.exact_linalg import rat_inverse
from k3ade.fqf import elements, eval_b, eval_q, group_order, subquotient
from k3ade.lattice_ops import (GramLattice, overlattice, root_type,
                               short_vectors)

HALF = Fraction(1, 2)


def lat(text):
    return GramLattice(cartan_gram(parse_type(text)))


def n_copies(gram2, k):
    """Orthogonal sum of k copies of a rank-1 block value."""
    return [[gram2 * (i == j) for j in range(k)] for i in range(k)]


def box_roots(gram, bound=2):
    """Independent oracle: all nonzero vectors of norm <= bound found
    by scanning the coordinate box |x_i| <= sqrt(bound * (G^-1)_ii)."""
    n = len(gram)
    inv = rat_inverse([list(r) for r in gram])
    limits = [isqrt(floor(bound * inv[i][i])) for i in range(n)]
    out = []
    for v in product(*(range(-b, b + 1) for b in limits)):
        if not any(v):
            continue
        norm = sum(v[i] * gram[i][j] * v[j]
                   for i in range(n) for j in range(n))
        if norm <= bound:
            out.append(v)
    return sorted(out)


class TestGramLattice:
    def test_basic(self):
        L = lat("A2")
        assert L.rank == 2 and L.det == 3
        assert L.gram[0][1] == L.gram[1][0] == 1

    @pytest.mark.parametrize("gram", [
        [[2, 1], [0, 2]],        # not symmetric
        [[1]],                   # odd diagonal
        [[2, 2], [2, 2]],        # degenerate
        [],                      # empty
        [[2, 1, 0], [1, 2, 1]],  # not square
    ])
    def test_rejects(self, gram):
        with pytest.raises(ValueError):
            GramLattice(gram)

    def test_equality_and_hash(self):
        assert lat("A2") == lat("A2")
        assert lat("A2") != lat("2A1")
        assert len({lat("A2"), lat("A2"), lat("2A1")}) == 2


class TestOverlattice:
    def test_empty_glue(self):
        L = lat("A2")
        M, index = overlattice(L, [])
        assert index == 1 and M == L

    def test_4a1_halves(self):
        L = GramLattice(n_copies(2, 4))
        M, index = overlattice(L, [[HALF] * 4])
        assert index == 2
        assert M.det == 4
        assert root_type(M) == parse_type("D4")

    def test_8a1_halves(self):
        L = GramLattice(n_copies(2, 8))
        M, index = overlattice(L, [[HALF] * 8])
        assert index == 2
        assert M.det == 64
        assert root_type(M) == parse_type("8A1")

    def test_d8_spinor_gives_unimodular(self):
        form, lifts = disc_form_closed(parse_type("D8"))
        assert eval_q(form, (1, 0)) == 0
        M, index = overlattice(lat("D8"), [lifts[0]])
        assert index == 2 and M.det == 1
        assert root_type(M) == parse_type("E8")

    def test_2d4_diagonal_gives_d8(self):
        # The diagonal spinor class has q = 1 + 1 = 0 in Q/2Z; each
        # spinor coset of D4 holds eight norm-1 vectors, so the glue
        # adds 64 roots to the 48 of 2D4, matching the 112 of D8.
        glue = [a + b for a, b in zip(*[disc_form_closed(
            parse_type("2D4"))[1][i] for i in (0, 2)])]
        M, index = overlattice(lat("2D4"), [glue])
        assert index == 2 and M.det == 4
        assert root_type(M) == parse_type("D8")

    def test_integral_lift_is_noop(self):
        L = lat("A2")
        M, index = overlattice(L, [[1, 2], [0, 1]])
        assert index == 1 and M == L

    @pytest.mark.parametrize("gram,lift,message", [
        (n_copies(2, 4), [HALF, 0, 0, 0], "not isotropic"),
        ([[2]], [Fraction(1, 3)], "outside the dual"),
        (cartan_gram(parse_type("A2")), [Fraction(-1, 3), Fraction(2, 3)],
         "not isotropic"),
        (cartan_gram(parse_type("D4")), None, "not isotropic"),
    ])
    def test_rejects(self, gram, lift, message):
        if lift is None:
            lift = disc_form_closed(parse_type("D4"))[1][0]  # q = 1
        with pytest.raises(ValueError, match=message):
            overlattice(GramLattice(gram), [lift])

    def test_rejects_nonorthogonal_pair(self):
        # In D(8A1) two weight-4 classes are each isotropic, but with
        # overlap 1 they pair to 1/2.
        L = GramLattice(n_copies(2, 8))
        u = [HALF] * 4 + [0] * 4
        v = [0] * 3 + [HALF] * 4 + [0]
        with pytest.raises(ValueError, match="pair to zero"):
            overlattice(L, [u, v])

    @pytest.mark.parametrize("text,glue_indices", [
        ("4A1", None),
        ("8A1", None),
        ("D8", [0]),
    ])
    def test_disc_form_matches_subquotient(self, text, glue_indices):
        """The overlattice discriminant form is the glue subquotient."""
        t = parse_type(text)
        L = GramLattice(cartan_gram(t))
        form, lifts = L.disc_form()
        if glue_indices is None:
            glue_elt = tuple(1 for _ in form.orders)
            glue_vec = [sum(lift[i] for lift in lifts)
                        for i in range(L.rank)]
        else:
            glue_elt = tuple(1 if i in glue_indices else 0
                             for i in range(len(form.orders)))
            glue_vec = [sum(lifts[i][j] for i in glue_indices)
                        for j in range(L.rank)]
        M, index = overlattice(L, [glue_vec])
        got, _ = M.disc_form()
        want = subquotient(form, [glue_elt])
        assert group_order(got) == group_order(want)
        assert sorted(eval_q(got, e) for e in elements(got)) == \
            sorted(eval_q(want, e) for e in elements(want))
        got_b = sorted(eval_b(got, e, f)
                       for e in elements(got) for f in elements(got))
        want_b = sorted(eval_b(want, e, f)
                        for e in elements(want) for f in elements(want))
        assert got_b == want_b


SHORT_SAMPLE = [
    ("A1", 2), ("A2", 6), ("A3", 12), ("A4", 20), ("A5", 30),
    ("D4", 24), ("D5", 40), ("D6", 60),
    ("E6", 72), ("E7", 126), ("E8", 240),
    ("2A1", 4), ("D4+2A3", 48), ("E7+A3+2A1", 142),
]


class TestShortVectors:
    @pytest.mark.parametrize("text,count", SHORT_SAMPLE)
    def test_root_counts(self, text, count):
        L = lat(text)
        full = short_vectors(L, 2, both_signs=True)
        reps = short_vectors(L, 2)
        assert len(full) == count
        assert len(reps) * 2 == count

    def test_reps_cover_sign_pairs(self):
        L = lat("D4")
        reps = short_vectors(L)
        full = set(short_vectors(L, both_signs=True))
        assert {tuple(-c for c in v) for v in reps} | set(reps) == full
        assert all(v > tuple(-c for c in v) for v in reps)

    def test_minimum_above_bound(self):
        assert short_vectors(GramLattice([[4]]), 2, both_signs=True) == []

    def test_larger_bound(self):
        got = short_vectors(GramLattice([[4]]), 4, both_signs=True)
        assert got == [(-1,), (1,)]

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            short_vectors(GramLattice([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="positive definite"):
            short_vectors(GramLattice([[-2]]))

    @pytest.mark.parametrize("text", [
        "A1", "A2", "A3", "2A1", "3A1", "D4", "D5", "A2+A1", "D4+A2",
        "A5", "E6",
    ])
    def test_against_box_oracle(self, text):
        L = lat(text)
        assert short_vectors(L, both_signs=True) == box_roots(
            [list(r) for r in L.gram])

    def test_box_oracle_on_overlattice(self):
        M, _ = overlattice(GramLattice(n_copies(2, 4)), [[HALF] * 4])
        assert short_vectors(M, both_signs=True) == box_roots(
            [list(r) for r in M.gram])

    def test_sorted_deterministic(self):
        L = lat("D5")
        assert short_vectors(L) == sorted(short_vectors(L))


def random_definite_gram(rng, n):
    """A seeded positive-definite even Gram matrix of rank n on a skewed
    basis: 2 A^T A + 2 I conjugated by a random unimodular matrix."""
    a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    g = [[2 * sum(a[k][i] * a[k][j] for k in range(n)) + 2 * (i == j)
          for j in range(n)] for i in range(n)]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-1, 1))
            p = [[p[r][k] + c * p[r][i] * (k == j) for k in range(n)]
                 for r in range(n)]
    return [[sum(p[r][i] * g[r][s] * p[s][j]
                 for r in range(n) for s in range(n))
             for j in range(n)] for i in range(n)]


class TestShortVectorsAgainstBox:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_lattices(self, seed):
        rng = random.Random(f"short:{seed}")
        for _ in range(15):
            gram = random_definite_gram(rng, rng.randint(1, 4))
            lat = GramLattice(gram)
            for bound in (2, 5, 8):
                box = box_roots(gram, bound)
                assert short_vectors(lat, bound, both_signs=True) == box
                assert short_vectors(lat, bound) == [
                    v for v in box if v > tuple(-c for c in v)]


class TestRootType:
    @pytest.mark.parametrize("text", [
        "A1", "A7", "D4", "D9", "E6", "E7", "E8",
        "E7+A3+2A1", "2E8+A2", "D4+2A3", "4A4", "A11+D7",
    ])
    def test_root_lattice_fixed_point(self, text):
        t = parse_type(text)
        assert root_type(GramLattice(cartan_gram(t))) == t

    def test_no_roots_gives_empty(self):
        assert root_type(GramLattice([[4]])).is_empty

    def test_strictly_smaller_root_sublattice(self):
        gram = [[2, 0], [0, 4]]
        assert root_type(GramLattice(gram)) == parse_type("A1")

    def test_direct_sum_additivity(self):
        a = cartan_gram(parse_type("D4"))
        b = cartan_gram(parse_type("A2"))
        n, m = len(a), len(b)
        gram = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = a[i][j]
        for i in range(m):
            for j in range(m):
                gram[n + i][n + j] = b[i][j]
        assert root_type(GramLattice(gram)) == parse_type("D4+A2")

    @given(st.sampled_from(["A3", "D4", "A2+A1", "D5"]),
           st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_basis_change_invariance(self, text, seed):
        """Root type only depends on the lattice, not the basis."""
        import random
        rng = random.Random(seed)
        t = parse_type(text)
        gram = cartan_gram(t)
        n = len(gram)
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                u[i][k] += c * u[j][k]
        new = [[sum(u[i][a] * gram[a][b] * u[j][b]
                    for a in range(n) for b in range(n))
                for j in range(n)] for i in range(n)]
        assert root_type(GramLattice(new)) == t
