import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3ade.ade_types import ADEType, cartan_gram
from k3ade.exact_linalg import (
    _smith,
    hermite_normal_form,
    int_det,
    int_inverse,
    int_rank,
    legendre_symbol,
    mat_identity,
    prime_factors,
    rat_inverse,
    smith_normal_form,
    square_class,
)
from smith_oracle import smith_normal_form as smith_with_u


def exact(m):
    """An integer matrix as a numpy array of Python ints, whose products
    stay exact."""
    return np.array(m, dtype=object)


def matrices(r, c, entries):
    """Strategy for r x c matrices with entries drawn from entries."""
    return st.lists(st.lists(entries, min_size=c, max_size=c),
                    min_size=r, max_size=r)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: matrices(r, c, st.integers(-9, 9))))

# Matrices with no unit entry (every entry a multiple of 2 or 3), so
# that the Euclidean steps leave remainders and the divisibility repair
# runs.
no_unit_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: matrices(r, c, st.builds(mul, st.sampled_from((2, 3)),
                                           st.integers(-5, 5)))))

# Singular matrices: the product of an r x k and a k x c matrix with
# k < min(r, c).
singular_matrices = st.integers(2, 4).flatmap(
    lambda r: st.integers(2, 4).flatmap(
        lambda c: st.integers(1, min(r, c) - 1).flatmap(
            lambda k: st.tuples(matrices(r, k, st.integers(-4, 4)),
                                matrices(k, c, st.integers(-4, 4))))),
).map(lambda xy: (exact(xy[0]) @ exact(xy[1])).tolist())


def assert_smith_form(a, d, v):
    """The contract of smith_normal_form, checked without U: V is
    unimodular, D is diagonal with d_1 | d_2 | ... >= 0, and the rows of
    a*V span the same module as the rows of D.  Two r x c matrices with
    the same row module differ by a unimodular U on the left, so this is
    U*a*V = D for some unimodular U."""
    assert abs(int_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    av = (exact(a) @ exact(v)).tolist()
    assert hermite_normal_form(av) == hermite_normal_form(d)


class TestSmithNormalForm:
    def test_identity(self):
        d, v = smith_normal_form(mat_identity(2))
        assert d == mat_identity(2)

    def test_already_diagonal(self):
        d, v = smith_normal_form([[2, 0], [0, 2]])
        assert d == [[2, 0], [0, 2]]

    def test_a2_gram(self):
        d, v = smith_normal_form([[2, 1], [1, 2]])
        assert d == [[1, 0], [0, 3]]

    def test_zero_matrix(self):
        d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]

    def test_rectangular(self):
        a = [[2, 4, 4]]
        d, v = smith_normal_form(a)
        assert_smith_form(a, d, v)
        assert d[0][0] == 2

    @given(small_matrices)
    @settings(max_examples=200, deadline=None)
    def test_v_unimodular_and_av_rows_span_d(self, a):
        d, v = smith_normal_form(a)
        assert_smith_form(a, d, v)

    @given(st.one_of(small_matrices, no_unit_matrices, singular_matrices))
    @example([[2, 3]])
    @example([[2, 0], [0, 3]])
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, a):
        _, d, v = smith_with_u(a)
        assert smith_normal_form(a) == (d, v)

    @given(small_matrices.filter(lambda a: len(a) == len(a[0])))
    @settings(max_examples=200, deadline=None)
    def test_diag_product_is_det(self, a):
        det = int_det(a)
        if det == 0:
            return
        d, _ = smith_normal_form(a)
        prod = 1
        for i in range(len(a)):
            prod *= d[i][i]
        assert prod == abs(det)


# The shapes of the pairing matrices of fqf.subquotient: one or two rows
# of scaled pairings, each entry reduced mod the exponent.
pairing_matrices = st.integers(1, 2).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: matrices(r, c, st.integers(0, 23))))


class TestInverseTransform:
    # The elimination builds V^-1 step by step for fqf.subquotient, which
    # inverts no matrix; smith_normal_form builds V alone.
    @given(st.one_of(small_matrices, no_unit_matrices, singular_matrices,
                     pairing_matrices))
    @example([[0, 0, 0], [4, 6, 10]])
    @example([[6, 4], [0, 0], [3, 9]])
    @example([[0, 12, 8, 18]])
    @settings(max_examples=300, deadline=None)
    def test_inverse_of_v(self, a):
        d, v, vinv = _smith(a, inverse=True)
        assert (d, v) == smith_normal_form(a)
        assert (exact(vinv) @ exact(v)).tolist() == mat_identity(len(v))
        assert _smith(a) == (d, v, None)
        assert _smith(a, right=False, inverse=True) == (d, None, vinv)
        assert _smith(a, right=False) == (d, None, None)


class TestTupleRows:
    # The short vectors of lattice_ops and the classes of a form are
    # tuples, so both normal forms take tuple rows and give what list
    # rows give.
    @given(small_matrices)
    @example([[2, 1], [1, 2]])
    @settings(max_examples=100, deadline=None)
    def test_same_as_list_rows(self, a):
        rows = tuple(map(tuple, a))
        assert smith_normal_form(rows) == smith_normal_form(a)
        assert hermite_normal_form(rows) == hermite_normal_form(a)


def _in_row_span(v, hnf_rows):
    """Membership of an integer vector in the row span of an HNF basis."""
    v = v[:]
    for row in hnf_rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


class TestHermiteNormalForm:
    def test_identity(self):
        assert hermite_normal_form(mat_identity(3)) == mat_identity(3)

    def test_hand_example(self):
        assert hermite_normal_form([[2, 0], [1, 1]]) == [[1, 1], [0, 2]]

    def test_zero_rows_removed(self):
        assert hermite_normal_form([[0, 0], [0, 0]]) == []
        assert hermite_normal_form([[0, 2], [0, 0]]) == [[0, 2]]

    @given(small_matrices)
    @settings(max_examples=200, deadline=None)
    def test_row_span_preserved(self, a):
        h = hermite_normal_form(a)
        hh = hermite_normal_form(h + a)
        assert hh == h
        for row in a:
            assert _in_row_span(row, h)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_canonical_shape(self, a):
        h = hermite_normal_form(a)
        pivots = []
        for row in h:
            col = next(j for j, x in enumerate(row) if x != 0)
            assert row[col] > 0
            pivots.append(col)
        assert pivots == sorted(pivots)
        for i, row in enumerate(h):
            for prow in h[i + 1:]:
                col = next(j for j, x in enumerate(prow) if x != 0)
                assert 0 <= row[col] < prow[col]


class TestLegendreSymbol:
    def test_one_is_square(self):
        assert legendre_symbol(1, 3) == 1

    def test_two_mod_three(self):
        assert legendre_symbol(2, 3) == -1

    def test_two_mod_seven(self):
        assert legendre_symbol(2, 7) == 1

    def test_rejects_divisible(self):
        with pytest.raises(ValueError):
            legendre_symbol(6, 3)

    def test_rejects_even_p(self):
        with pytest.raises(ValueError):
            legendre_symbol(3, 2)

    def test_brute_force_small_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            squares = {(x * x) % p for x in range(1, p)}
            for u in range(1, p):
                want = 1 if u in squares else -1
                assert legendre_symbol(u, p) == want


def trial_division(n):
    """The distinct primes of n by trial division up to the square root
    of what is left: the reference for prime_factors."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def primes_from(start, count):
    """The first count primes at or above start, by trial division."""
    out = []
    n = start
    while len(out) < count:
        if n > 1 and trial_division(n) == [n]:
            out.append(n)
        n += 1
    return out


class TestPrimeFactors:
    def test_matches_trial_division_below_1e5(self):
        for n in range(-10, 10 ** 5):
            assert prime_factors(n) == trial_division(n), n

    def test_products_of_two_primes_near_1e9(self):
        below = primes_from(10 ** 9 - 200, 4)
        above = primes_from(10 ** 9, 4)
        for p in below + above:
            for q in above:
                want = sorted({p, q})
                assert prime_factors(p * q) == want
                assert prime_factors(-2 * 3 * p * q) == [2, 3] + want

    def test_prime_powers_above_the_trial_bound(self):
        p, q = primes_from(1009, 2)
        assert prime_factors(p ** 8) == [p]
        assert prime_factors(p ** 3 * q ** 2 * 2 ** 40) == [2, p, q]

    @pytest.mark.parametrize("n,want", [
        # The least strong pseudoprimes to the first 3, 6, 8, 11 and 12
        # prime bases, every prime factor above the trial bound; a wrong
        # Miller-Rabin answer would return n itself.
        (25326001, [2251, 11251]),
        (3474749660383, [1303, 16927, 157543]),
        (341550071728321, [10670053, 32010157]),
        (3825123056546413051, [149491, 747451, 34233211]),
        (318665857834031151167461, [399165290221, 798330580441]),
    ])
    def test_strong_pseudoprimes(self, n, want):
        assert prime_factors(n) == want

    def test_refuses_past_the_exact_range(self):
        # 2^89 - 1 is a prime above the range where the primality test
        # is exact; the last number is the least strong pseudoprime to
        # all 13 bases, where that range ends.
        m89 = 2 ** 89 - 1
        for n in (m89, 6 * m89, m89 * (2 ** 107 - 1),
                  3317044064679887385961981):
            with pytest.raises(ValueError, match="cannot factor"):
                prime_factors(n)


class TestSquareClass:
    def test_perfect_square(self):
        assert square_class(9, 5) == 1

    def test_nonsquare_mod_three(self):
        assert square_class(2, 3) == 7

    def test_mod_eight(self):
        assert square_class(21, 2) == 5

    def test_exhaustive_encoding(self):
        # 1 for a square and 7 (= -1 mod 8) for a non-square at odd p;
        # the unit mod 8 at p = 2.
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            squares = {(x * x) % p for x in range(1, p)}
            for u in range(1, p):
                assert square_class(u, p) == (1 if u in squares else 7)
        for u in range(1, 64, 2):
            assert square_class(u, 2) == u % 8

    def test_rejects_nonunit(self):
        with pytest.raises(ValueError):
            square_class(4, 2)

    @given(st.sampled_from([3, 5, 7, 2]), st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, p, u, v):
        if u % p == 0 or v % p == 0:
            return
        assert (square_class(u, p) * square_class(v, p) % 8
                == square_class(u * v, p))

    def test_identity_element(self):
        for p in (2, 3, 5):
            c = square_class(7 if p != 7 else 11, p)
            assert c * 1 % 8 == c
            assert c * c % 8 == 1


class TestRationalHelpers:
    def test_inverse_of_a2(self):
        inv = rat_inverse([[2, 1], [1, 2]])
        assert inv == [[Fraction(2, 3), Fraction(-1, 3)],
                       [Fraction(-1, 3), Fraction(2, 3)]]

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            rat_inverse([[1, 1], [1, 1]])

    @given(small_matrices.filter(lambda a: len(a) == len(a[0])))
    @settings(max_examples=100, deadline=None)
    def test_rank_vs_det(self, a):
        n = len(a)
        if int_det(a) != 0:
            assert int_rank(a) == n
        else:
            assert int_rank(a) < n

    def test_rank_rectangular(self):
        assert int_rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert int_rank([]) == 0

    def test_int_inverse_unimodular(self):
        assert int_inverse([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]

    def test_int_inverse_rejects_nonunimodular(self):
        with pytest.raises(ValueError):
            int_inverse([[2, 0], [0, 1]])


def fraction_model(a):
    """Test-local Fraction Gauss-Jordan elimination of [a | I]:
    (det, rank, inverse) of a square matrix, with det 0 and inverse
    None when it is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    det = Fraction(1)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if rank < n:
        return 0, rank, None
    return det, rank, [row[n:] for row in m]


def _seeded_matrices():
    """200 nonsingular integer matrices of rank 1-8, with both signs
    of determinant, about half of them unimodular, and 40 singular
    ones."""
    rng = random.Random("inverse-model")
    good, singular = [], []
    while len(good) < 100:
        n = rng.randint(1, 8)
        a = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        (good if int_det(a) else singular).append(a)
    while len(good) < 200:
        # A product of elementary moves is unimodular; a final row swap
        # or sign flip makes the determinant -1.
        n = rng.randint(1, 8)
        a = mat_identity(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            c = rng.randint(-2, 2)
            if i != j:
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if rng.random() < 0.5:
            a[0] = [-x for x in a[0]]
        good.append(a)
    while len(singular) < 40:
        n = rng.randint(2, 8)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        k = rng.randrange(n - 1)
        c = rng.randint(-2, 2)
        a.append([c * x for x in a[k]])
        rng.shuffle(a)
        singular.append(a)
    return good, singular


GOOD_MATRICES, SINGULAR_MATRICES = _seeded_matrices()


def _zero_lead_matrices():
    """60 seeded nonsingular matrices of size 2-8 with a zero top-left
    entry, so the first pivot needs a row swap."""
    rng = random.Random("zero-lead")
    out = []
    while len(out) < 60:
        n = rng.randint(2, 8)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        a[0][0] = 0
        if fraction_model(a)[0]:
            out.append(a)
    return out


def _rank_deficient_products():
    """40 seeded square products A B of an n x k and a k x n matrix,
    k < n, so the rank is at most k."""
    rng = random.Random("rank-products")
    out = []
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        out.append((exact(a) @ exact(b)).tolist())
    return out


ZERO_LEAD_MATRICES = _zero_lead_matrices()
RANK_DEFICIENT_PRODUCTS = _rank_deficient_products()
CARTAN_MATRICES = [cartan_gram(ADEType(((k, n),))) for k, n in
                   [("A", n) for n in range(1, 19)]
                   + [("D", n) for n in range(4, 19)]
                   + [("E", 6), ("E", 7), ("E", 8)]]


class TestInverseAgainstFractionModel:
    def test_seeded_matrices_cover_both_signs(self):
        dets = [int_det(a) for a in GOOD_MATRICES]
        assert len(GOOD_MATRICES) == 200
        assert {len(a) for a in GOOD_MATRICES} == set(range(1, 9))
        assert any(d < -1 for d in dets) and any(d > 1 for d in dets)
        assert -1 in dets and 1 in dets

    @pytest.mark.parametrize("source", ["seeded", "cartan", "zero-lead"])
    def test_rat_and_int_inverse(self, source):
        mats = {"seeded": GOOD_MATRICES, "cartan": CARTAN_MATRICES,
                "zero-lead": ZERO_LEAD_MATRICES}[source]
        for a in mats:
            det, rank, want = fraction_model(a)
            assert int_det(a) == det
            assert int_rank(a) == rank == len(a)
            assert rat_inverse(a) == want
            if abs(det) == 1:
                assert int_inverse(a) == [[int(x) for x in row]
                                          for row in want]
            else:
                with pytest.raises(ValueError, match="not unimodular"):
                    int_inverse(a)

    def test_singular_raises(self):
        for a in SINGULAR_MATRICES + RANK_DEFICIENT_PRODUCTS:
            det, rank, want = fraction_model(a)
            assert det == 0 and want is None
            assert int_det(a) == 0
            assert int_rank(a) == rank
            with pytest.raises(ValueError, match="singular"):
                rat_inverse(a)
            with pytest.raises(ValueError, match="singular"):
                int_inverse(a)