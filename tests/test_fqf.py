import pickle
import random
from fractions import Fraction as F
from functools import reduce
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from k3ade.exact_linalg import int_det, int_inverse, rat_inverse
from k3ade.fqf import (
    TRIVIAL_FORM,
    FiniteQuadraticForm,
    _b_scaled,
    _q_scaled,
    direct_sum,
    discriminant_form,
    dump_form,
    elements,
    element_order,
    eval_b,
    eval_q,
    form_on_generators,
    group_order,
    is_nondegenerate,
    make_form,
    p_part,
    parse_form,
    span,
    subquotient,
)
from k3ade.kernels import isotropic_list, orthogonal_mask
from smith_oracle import smith_normal_form as smith_with_u

A1 = [[2]]
A2 = [[2, 1], [1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A5 = [[2, -1, 0, 0, 0],
      [-1, 2, -1, 0, 0],
      [0, -1, 2, -1, 0],
      [0, 0, -1, 2, -1],
      [0, 0, 0, -1, 2]]
D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
U = [[0, 1], [1, 0]]


def q_a1_powers(k):
    gram = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    return discriminant_form(gram)[0]


@st.composite
def even_grams(draw, nmax=3):
    n = draw(st.integers(1, nmax))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(int_det(g) != 0)
    return g


# The seed that derandomize=True drew from the source of
# test_quadratic_form_axiom when it called the Fraction evaluators on
# every pair; pinned so that the scaled-integer body checks the same 60
# examples.
AXIOM_SEED = int("1298214035078500760698764905694134776614499066844"
                 "6725921914465541935570944297919407673490169561302"
                 "227242779153191298")


class TestDiscriminantForm:
    def test_a1(self):
        form, lifts = discriminant_form(A1)
        assert form.orders == (2,)
        assert form.qdiag == (F(1, 2),)
        assert form.bmat == ((F(1, 2),),)
        assert lifts == [[F(1, 2)]]

    def test_hyperbolic_plane_is_trivial(self):
        form, lifts = discriminant_form(U)
        assert form == TRIVIAL_FORM
        assert lifts == []

    def test_a2(self):
        form, _ = discriminant_form(A2)
        assert form.orders == (3,)
        assert form.qdiag == (F(2, 3),)
        assert form.bmat == ((F(2, 3),),)

    def test_a3(self):
        form, _ = discriminant_form(A3)
        assert form.orders == (4,)
        assert form.qdiag == (F(3, 4),)

    def test_a5(self):
        form, _ = discriminant_form(A5)
        assert form.orders == (6,)
        assert form.qdiag == (F(5, 6),)

    def test_d4(self):
        form, _ = discriminant_form(D4)
        assert form.orders == (2, 2)
        assert form.qdiag == (F(1), F(1))
        assert form.bmat[0][1] == F(1, 2)

    @pytest.mark.parametrize("gram", [[[2, 1], [1]], [[2, 1, 0], [1, 2, 0]]])
    def test_rejects_non_square(self, gram):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            discriminant_form(gram)

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            discriminant_form([[1]])

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            discriminant_form([[2, 2], [2, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            discriminant_form([[2, 1], [0, 2]])

    def test_lift_orders(self):
        form, lifts = discriminant_form(A5)
        assert all((6 * c).denominator == 1 for c in lifts[0])

    @given(even_grams())
    @settings(max_examples=100, deadline=None)
    def test_group_order_is_det(self, gram):
        form, _ = discriminant_form(gram)
        assert group_order(form) == abs(int_det(gram))

    @given(even_grams())
    @seed(AXIOM_SEED)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_quadratic_form_axiom(self, gram):
        # q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2 on every ordered
        # pair, scaled by E: q is evaluated once per element, b from the
        # scaled pairings, and x + y is looked up by its odometer index.
        form, _ = discriminant_form(gram)
        assume(group_order(form) <= 512)
        e, n = form.exp, len(form.orders)
        q = np.array([int(eval_q(form, x) * e) for x in elements(form)])
        xs = np.array(list(elements(form)), np.int64).reshape(len(q), n)
        b = xs @ np.array(form.bs, np.int64).reshape(n, n) @ xs.T % e
        place = np.array([prod(form.orders[i + 1:]) for i in range(n)],
                         np.int64)
        orders = np.array(form.orders, np.int64)
        sums = (xs[:, None, :] + xs[None, :, :]) % orders @ place
        assert ((q[sums] - q[:, None] - q[None, :] - 2 * b) % (2 * e)
                == 0).all()


def reference_discriminant_form(gram):
    """The discriminant form by the rational-inverse route: the
    generators are the columns of U^{-1} in the dual basis (U from the
    Smith form U G V = D) and their lifts are G^{-1} times them."""
    n = len(gram)
    ginv = rat_inverse(gram)
    u, d, _ = smith_with_u(gram)
    uinv = int_inverse(u)
    cols = [i for i in range(n) if d[i][i] > 1]
    coords = [[uinv[r][i] for r in range(n)] for i in cols]
    lifts = [[sum(ginv[r][k] * c[k] for k in range(n)) for r in range(n)]
             for c in coords]

    def pair(i, j):
        return sum(F(x) * y for x, y in zip(coords[i], lifts[j]))

    m = len(cols)
    form = FiniteQuadraticForm(
        tuple(d[i][i] for i in cols),
        tuple(pair(i, i) % 2 for i in range(m)),
        tuple(tuple(pair(i, j) % 1 for j in range(m)) for i in range(m)))
    return form, lifts


def random_even_gram(rng, kind, n):
    """A seeded even symmetric n x n matrix: positive definite,
    indefinite, or degenerate (of rank at most n - 1)."""
    if kind == "degenerate":
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
        return [[2 * sum(a[k][i] * a[k][j] for k in range(n - 1))
                 for j in range(n)] for i in range(n)]
    if kind == "definite":
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        return [[2 * sum(a[k][i] * a[k][j] for k in range(n))
                 + 2 * (i == j) for j in range(n)] for i in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-4, 4)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-5, 5)
    return g


class TestDiscriminantFormAgainstInverse:
    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_rational_inverse(self, kind, seed):
        rng = random.Random(f"{kind}:{seed}")
        checked = 0
        while checked < 40:
            gram = random_even_gram(rng, kind, rng.randint(1, 6))
            if int_det(gram) == 0:
                continue
            assert discriminant_form(gram) == reference_discriminant_form(
                gram)
            checked += 1

    @pytest.mark.parametrize("seed", range(3))
    def test_degenerate_rejected_by_both(self, seed):
        rng = random.Random(f"degenerate:{seed}")
        for _ in range(20):
            gram = random_even_gram(rng, "degenerate", rng.randint(1, 6))
            with pytest.raises(ValueError, match="nondegenerate"):
                discriminant_form(gram)
            with pytest.raises(ValueError):
                reference_discriminant_form(gram)


class TestDirectSum:
    def test_trivial_is_neutral(self):
        form, _ = discriminant_form(A2)
        assert direct_sum(form, TRIVIAL_FORM) == form
        assert direct_sum(TRIVIAL_FORM, form) == form

    def test_two_a1(self):
        q2 = q_a1_powers(2)
        qa1 = discriminant_form(A1)[0]
        assert direct_sum(qa1, qa1) == q2
        assert q2.orders == (2, 2)
        assert q2.qdiag == (F(1, 2), F(1, 2))
        assert q2.bmat[0][1] == 0

    def test_a2_plus_a1_orders(self):
        form = direct_sum(discriminant_form(A2)[0], discriminant_form(A1)[0])
        assert form.orders == (3, 2)
        assert group_order(form) == 6
        assert form.exp == 6

    @staticmethod
    def _stats(form):
        qs = sorted((element_order(form, x), eval_q(form, x))
                    for x in elements(form))
        bs = None
        if group_order(form) <= 32:
            bs = sorted(eval_b(form, x, y)
                        for x in elements(form) for y in elements(form))
        return qs, bs

    @given(even_grams(2), even_grams(2))
    @settings(max_examples=60, deadline=None)
    def test_matches_block_diagonal_lattice(self, g1, g2):
        n1, n2 = len(g1), len(g2)
        block = [row + [0] * n2 for row in g1] + [[0] * n1 + row for row in g2]
        direct = direct_sum(discriminant_form(g1)[0], discriminant_form(g2)[0])
        whole = discriminant_form(block)[0]
        assume(group_order(whole) <= 400)
        assert self._stats(direct) == self._stats(whole)


class TestPPart:
    def test_a5_at_two(self):
        form = p_part(discriminant_form(A5)[0], 2)
        assert form.orders == (2,)
        assert form.qdiag == (F(3, 2),)

    def test_a5_at_three(self):
        form = p_part(discriminant_form(A5)[0], 3)
        assert form.orders == (3,)
        assert form.qdiag == (F(4, 3),)

    def test_no_torsion_gives_trivial(self):
        assert p_part(discriminant_form(A1)[0], 3) == TRIVIAL_FORM

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            p_part(discriminant_form(A1)[0], 4)
        for p in (-3, 0, 1, 9, 10000019 * 3):
            with pytest.raises(ValueError, match="not prime"):
                p_part(discriminant_form(A1)[0], p)

    def test_large_prime(self):
        p = 10000019
        form = p_part(discriminant_form([[2 * p]])[0], p)
        assert form.orders == (p,)

    @given(even_grams())
    @settings(max_examples=60, deadline=None)
    def test_reassembly(self, gram):
        form, _ = discriminant_form(gram)
        assume(group_order(form) <= 400)
        n = group_order(form)
        primes = [p for p in range(2, n + 1) if n % p == 0 and
                  all(p % k for k in range(2, p))]
        parts = [p_part(form, p) for p in primes]
        glued = reduce(direct_sum, parts, TRIVIAL_FORM)
        assert TestDirectSum._stats(glued) == TestDirectSum._stats(form)


class TestEval:
    def test_zero(self):
        form = discriminant_form(A1)[0]
        assert eval_q(form, (0,)) == 0

    def test_sum_of_two_halves(self):
        assert eval_q(q_a1_powers(2), (1, 1)) == 1

    def test_b_on_a2_generator(self):
        form = discriminant_form(A2)[0]
        assert eval_b(form, (1,), (1,)) == F(2, 3)

    def test_reduction_mod_orders(self):
        form = discriminant_form(A2)[0]
        assert eval_q(form, (4,)) == eval_q(form, (1,))
        assert eval_b(form, (-1,), (1,)) == eval_b(form, (2,), (1,))

    def test_element_order(self):
        form = direct_sum(discriminant_form(A2)[0], discriminant_form(A1)[0])
        assert element_order(form, (0, 0)) == 1
        assert element_order(form, (1, 0)) == 3
        assert element_order(form, (1, 1)) == 6


class TestIsotropic:
    def test_a1(self):
        assert set(isotropic_list(discriminant_form(A1)[0])) == {(0,)}

    def test_four_a1(self):
        got = set(isotropic_list(q_a1_powers(4)))
        assert got == {(0, 0, 0, 0), (1, 1, 1, 1)}

    def test_trivial(self):
        assert set(isotropic_list(TRIVIAL_FORM)) == {()}

    @given(even_grams())
    @settings(max_examples=40, deadline=None)
    def test_isotropic_pairs_span_isotropic(self, gram):
        form, _ = discriminant_form(gram)
        assume(group_order(form) <= 36)
        iso = set(isotropic_list(form))
        for v in iso:
            for w in iso:
                if eval_b(form, v, w) == 0:
                    assert span(form, [v, w]) <= iso


class TestSubquotient:
    def test_zero_subgroup(self):
        form = discriminant_form(A2)[0]
        mask = orthogonal_mask(form, [(0,)], list(elements(form)))
        assert mask == [[True] * group_order(form)]
        assert subquotient(form, []) == form

    def test_eight_a1(self):
        form = q_a1_powers(8)
        ones = (1,) * 8
        [row] = orthogonal_mask(form, [ones], list(elements(form)))
        assert sum(row) == 128
        sub = subquotient(form, [ones])
        assert group_order(sub) == 64

    def test_four_a1_gives_d4_form(self):
        sub = subquotient(q_a1_powers(4), [(1, 1, 1, 1)])
        assert sub.orders == (2, 2)
        assert sub.qdiag == (F(1), F(1))
        assert sub.bmat[0][1] == F(1, 2)

    def test_rejects_anisotropic_generator(self):
        with pytest.raises(ValueError):
            subquotient(q_a1_powers(2), [(1, 0)])

    def test_rejects_nonorthogonal_pair(self):
        form = make_form([2, 2], [0, 0], [[0, F(1, 2)], [F(1, 2), 0]])
        with pytest.raises(ValueError):
            subquotient(form, [(1, 0), (0, 1)])

    def test_full_isotropic_splitting(self):
        form = make_form([2, 2], [0, 0], [[0, F(1, 2)], [F(1, 2), 0]])
        sub = subquotient(form, [(1, 0)])
        assert sub == TRIVIAL_FORM


class TestFormOnGenerators:
    def test_two_a1_rebased(self):
        form = q_a1_powers(2)
        new = form_on_generators(form, [(1, 1), (0, 1)])
        assert new.orders == (2, 2)
        assert new.qdiag == (F(1), F(1, 2))
        assert new.bmat[0][1] == F(1, 2)

    def test_identity_rebase(self):
        form = discriminant_form(D4)[0]
        assert form_on_generators(form, [(1, 0), (0, 1)]) == form

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_pair_model(self, seed):
        # The pairing rows against one _b_scaled call per pair of new
        # generators, on presentations of rank up to 6 and up to 8 rows.
        rng = random.Random(f"pairing-rows:{seed}")
        for _ in range(40):
            form = FiniteQuadraticForm(
                *random_presentation(rng, FQF_ORDERS, 6))
            orders = form.orders
            rows = [x for x in small_elements(rng, orders, 10)
                    if element_order(form, x) > 1]
            rows = rng.sample(rows, rng.randint(1, min(8, len(rows))))
            xs = [tuple(c % d for c, d in zip(x, orders)) for x in rows]
            got = form_on_generators(form, rows)
            e, e2 = form.exp, got.exp
            assert e2 == lcm(*(element_order(form, x) for x in xs))
            assert got.qs == tuple(_q_scaled(form, x) * e2 // e % (2 * e2)
                                   for x in xs)
            assert got.bs == tuple(tuple(_b_scaled(form, x, y) * e2 // e
                                         % e2 for y in xs) for x in xs)


class TestTextFormat:
    def test_trivial_round_trip(self):
        assert dump_form(TRIVIAL_FORM) == "1\n"
        assert parse_form("1\n") == TRIVIAL_FORM
        assert parse_form(dump_form(TRIVIAL_FORM)) == TRIVIAL_FORM

    def test_dump_a2(self):
        form = discriminant_form(A2)[0]
        assert dump_form(form) == "3\n2/3\n2/3\n"

    def test_round_trip_examples(self):
        for gram in (A1, A2, A3, A5, D4):
            form, _ = discriminant_form(gram)
            text = dump_form(form)
            assert parse_form(text) == form
            assert dump_form(parse_form(text)) == text
        mixed = direct_sum(discriminant_form(A2)[0], discriminant_form(D4)[0])
        assert parse_form(dump_form(mixed)) == mixed

    def test_parse_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            parse_form("2\n1/2\n")
        with pytest.raises(ValueError):
            parse_form("")
        with pytest.raises(ValueError):
            parse_form("1\n0/1\n")

    @given(even_grams())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, gram):
        form, _ = discriminant_form(gram)
        assert parse_form(dump_form(form)) == form


class TestNondegenerate:
    @pytest.mark.parametrize("gram", [A1, A2, A5, D4, U])
    def test_discriminant_forms(self, gram):
        assert is_nondegenerate(discriminant_form(gram)[0])

    def test_trivial(self):
        assert is_nondegenerate(TRIVIAL_FORM)

    @pytest.mark.parametrize("text", [
        "2 2\n0 0\n0 0\n0\n",           # b = 0
        "2 4\n1/2 1/2\n1/2 0\n1/2\n",    # 2 * gamma_2 pairs to zero
        "4\n1/2\n1/2\n",                 # 2 * gamma pairs to zero
    ])
    def test_degenerate(self, text):
        assert not is_nondegenerate(parse_form(text))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_radical_by_search(self, seed):
        rng = random.Random(f"radical:{seed}")
        for _ in range(25):
            orders, qdiag, bmat = random_presentation(rng, (2, 3, 4, 6), 3)
            form = FiniteQuadraticForm(orders, qdiag, bmat)
            n = len(orders)
            gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            radical = [x for x in elements(form) if any(x) and all(
                eval_b(form, x, g) == 0 for g in gens)]
            assert is_nondegenerate(form) == (not radical)


def random_presentation(rng, order_choices, max_rank):
    """Seeded random valid presentation (orders, qdiag, bmat) as Fractions:
    q(g) = a/d with d*a even, and b(g_i, g_j) a multiple of
    1/gcd(d_i, d_j)."""
    orders = [rng.choice(order_choices)
              for _ in range(rng.randint(1, max_rank))]
    n = len(orders)
    qdiag = [F(rng.randrange(0, 2 * d, 1 if d % 2 == 0 else 2), d)
             for d in orders]
    bmat = [[qdiag[i] % 1 if i == j else None for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(orders[i], orders[j])
            bmat[i][j] = bmat[j][i] = F(rng.randrange(g), g)
    return tuple(orders), tuple(qdiag), tuple(tuple(r) for r in bmat)


# A test-only model of a finite quadratic form with Fraction values: the
# presentation (orders, q, b) and the definitions, with no scaling.

def model_q(q, b, x):
    n = len(q)
    total = sum(x[i] * x[i] * q[i] for i in range(n))
    total += sum(2 * x[i] * x[j] * b[i][j]
                 for i in range(n) for j in range(i + 1, n))
    return total % 2


def model_b(b, x, y):
    n = len(b)
    return sum(x[i] * y[j] * b[i][j] for i in range(n) for j in range(n)) % 1


def model_order(orders, x):
    k = 1
    while any(k * c % d for c, d in zip(x, orders)):
        k += 1
    return k


FQF_ORDERS = (2, 3, 4, 6, 8, 9, 25)


def random_model_forms(tag, count):
    rng = random.Random(tag)
    return rng, [random_presentation(rng, FQF_ORDERS, 4)
                 for _ in range(count)]


def small_elements(rng, orders, count=30):
    """Random elements, coefficients not reduced, and the generators."""
    n = len(orders)
    out = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out += [tuple(rng.randrange(-2 * d, 2 * d) for d in orders)
            for _ in range(count)]
    return out


class TestAgainstFractionModel:
    """The scaled-integer form against the Fraction model on seeded
    random presentations (orders from FQF_ORDERS, rank 1-4)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_eval(self, seed):
        rng, forms = random_model_forms(f"eval:{seed}", 40)
        for orders, q, b in forms:
            form = FiniteQuadraticForm(orders, q, b)
            assert form.qdiag == q and form.bmat == b
            xs = small_elements(rng, orders)
            for x in xs:
                assert eval_q(form, x) == model_q(q, b, x)
                assert element_order(form, x) == model_order(orders, x)
                for y in xs[:8]:
                    assert eval_b(form, x, y) == model_b(b, x, y)

    @pytest.mark.parametrize("seed", range(3))
    def test_p_part(self, seed):
        _, forms = random_model_forms(f"p_part:{seed}", 40)
        for orders, q, b in forms:
            form = FiniteQuadraticForm(orders, q, b)
            for p in (2, 3, 5, 7):
                idx = [i for i, d in enumerate(orders) if d % p == 0]
                pord = []
                mult = []
                for i in idx:
                    m = orders[i]
                    while m % p == 0:
                        m //= p
                    pord.append(orders[i] // m)
                    mult.append(m)
                got = p_part(form, p)
                assert got.orders == tuple(pord)
                assert got.qdiag == tuple(m * m * q[i] % 2
                                          for i, m in zip(idx, mult))
                assert got.bmat == tuple(
                    tuple(mi * mj * b[i][j] % 1 for j, mj in zip(idx, mult))
                    for i, mi in zip(idx, mult))

    @pytest.mark.parametrize("seed", range(3))
    def test_direct_sum(self, seed):
        _, forms = random_model_forms(f"direct_sum:{seed}", 40)
        for (o1, q1, b1), (o2, q2, b2) in zip(forms[::2], forms[1::2]):
            got = direct_sum(FiniteQuadraticForm(o1, q1, b1),
                             FiniteQuadraticForm(o2, q2, b2))
            n1, n2 = len(o1), len(o2)
            assert got.orders == o1 + o2
            assert got.qdiag == q1 + q2
            assert got.bmat == (
                tuple(row + (F(0),) * n2 for row in b1)
                + tuple((F(0),) * n1 + row for row in b2))

    @pytest.mark.parametrize("seed", range(3))
    def test_direct_sum_of_many(self, seed):
        # The n-ary sum equals the pairwise fold, for zero to five forms.
        rng, forms = random_model_forms(f"direct_sum_many:{seed}", 40)
        forms = [FiniteQuadraticForm(*f) for f in forms]
        for _ in range(20):
            parts = rng.sample(forms, rng.randint(0, 5))
            got = direct_sum(*parts)
            want = reduce(direct_sum, parts, TRIVIAL_FORM)
            assert (got.orders, got.exp, got.qs, got.bs) == (
                want.orders, want.exp, want.qs, want.bs)
            assert hash(got) == hash(want)

    def test_direct_sum_of_none_and_one(self):
        assert direct_sum() == TRIVIAL_FORM
        form = FiniteQuadraticForm(*random_model_forms("one", 1)[1][0])
        got = direct_sum(form)
        assert (got.orders, got.exp, got.qs, got.bs) == (
            form.orders, form.exp, form.qs, form.bs)

    @pytest.mark.parametrize("seed", range(3))
    def test_form_on_generators(self, seed):
        rng, forms = random_model_forms(f"generators:{seed}", 40)
        for orders, q, b in forms:
            form = FiniteQuadraticForm(orders, q, b)
            rows = [x for x in small_elements(rng, orders, 6)
                    if model_order(orders, x) > 1][:rng.randint(1, 4)]
            got = form_on_generators(form, rows)
            assert got.orders == tuple(model_order(orders, x) for x in rows)
            assert got.qdiag == tuple(model_q(q, b, x) for x in rows)
            assert got.bmat == tuple(tuple(model_b(b, x, y) for y in rows)
                                     for x in rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_subquotient(self, seed):
        rng, forms = random_model_forms(f"subquotient:{seed}", 200)
        checked = 0
        for orders, q, b in forms:
            form = FiniteQuadraticForm(orders, q, b)
            elts = list(elements(form))
            if len(elts) > 400 or not is_nondegenerate(form):
                continue
            iso = [x for x in elts if any(x) and model_q(q, b, x) == 0]
            if not iso:
                continue
            v = rng.choice(iso)
            ws = [w for w in iso if model_b(b, v, w) == 0]
            gens = [v, rng.choice(ws)]
            sub = span(form, gens)
            perp = [y for y in elts
                    if all(model_b(b, h, y) == 0 for h in gens)]
            # H^perp / H by cosets: the order of y + H and q(y).
            want = {}
            for y in perp:
                coset = frozenset(
                    tuple((a + c) % d for a, c, d in zip(y, h, orders))
                    for h in sub)
                k = 1
                while tuple(k * c % d for c, d in zip(y, orders)) not in sub:
                    k += 1
                want[coset] = (k, model_q(q, b, y))
            got = subquotient(form, gens)
            assert sorted((element_order(got, x), eval_q(got, x))
                          for x in elements(got)) == sorted(want.values())
            checked += 1
        assert checked >= 20


class TestValidation:
    """Each rule rejects a malformed presentation built from Fraction
    values and the same one built from scaled integers."""

    @pytest.mark.parametrize("orders,qdiag,bmat,qs,bs,message", [
        ((2,), (), ((0,),), (), ((0,),), "sizes"),
        ((2, 2), (0, 0), ((0, 0), (0,)), (0, 0), ((0, 0), (0,)), "sizes"),
        ((1,), (0,), ((0,),), (0,), ((0,),), "at least 2"),
        ((2,), (F(2),), ((0,),), (4,), ((0,),), r"\[0, 2\)"),
        ((2,), (F(-1, 2),), ((F(1, 2),),), (-1,), ((1,),), r"\[0, 2\)"),
        ((2,), (F(1, 2),), ((0,),), (1,), ((0,),), "reduced mod Z"),
        ((3,), (F(1, 3),), ((F(1, 3),),), (1,), ((1,),), "square"),
        ((2, 2), (0, 0), ((0, 1), (1, 0)), (0, 0), ((0, 2), (2, 0)),
         r"\[0, 1\)"),
        ((2, 2), (0, 0), ((0, F(1, 2)), (0, 0)), (0, 0), ((0, 1), (0, 0)),
         "symmetric"),
        ((2, 3), (0, 0), ((0, F(1, 2)), (F(1, 2), 0)), (0, 0),
         ((0, 3), (3, 0)), "killed by ord"),
    ])
    def test_rule(self, orders, qdiag, bmat, qs, bs, message):
        with pytest.raises(ValueError, match=message):
            FiniteQuadraticForm(orders, qdiag, bmat)
        with pytest.raises(ValueError, match=message):
            FiniteQuadraticForm.from_scaled(orders, qs, bs)

    def test_value_off_the_exponent_grid(self):
        with pytest.raises(ValueError, match="divide the exponent"):
            FiniteQuadraticForm((2,), (F(1, 4),), ((F(1, 4),),))

    @pytest.mark.parametrize("seed", range(2))
    def test_both_constructors_agree(self, seed):
        _, forms = random_model_forms(f"constructors:{seed}", 50)
        for orders, q, b in forms:
            e = lcm(*orders)
            scaled = FiniteQuadraticForm.from_scaled(
                orders, [int(x * e) for x in q],
                [[int(x * e) for x in row] for row in b])
            fractional = FiniteQuadraticForm(orders, q, b)
            assert scaled == fractional
            assert hash(scaled) == hash(fractional)
            assert pickle.loads(pickle.dumps(scaled)) == fractional

    @pytest.mark.parametrize("seed", range(2))
    def test_derived_forms_pass_full_validation(self, seed):
        # p_part, direct_sum and form_on_generators without orders skip
        # the checks; what they build must pass them all the same.
        rng, forms = random_model_forms(f"derived:{seed}", 60)
        built = [FiniteQuadraticForm(*f) for f in forms]
        derived = []
        for form, other in zip(built, built[1:]):
            derived += [p_part(form, p) for p in (2, 3, 5, 7)]
            derived.append(direct_sum(form, other))
            rows = [x for x in small_elements(rng, form.orders, 6)
                    if element_order(form, x) > 1][:rng.randint(1, 4)]
            derived.append(form_on_generators(form, rows))
        for f in derived:
            checked = FiniteQuadraticForm.from_scaled(f.orders, f.qs, f.bs)
            assert checked == f
            assert (checked.exp, hash(checked)) == (f.exp, hash(f))

    def test_derived_zero_generator_rejected(self):
        form = discriminant_form(A2)[0]
        with pytest.raises(ValueError, match="at least 2"):
            form_on_generators(form, [(1,), (0,)])

    def test_equality_sees_values(self):
        a1 = FiniteQuadraticForm((2,), (F(1, 2),), ((F(1, 2),),))
        e7 = FiniteQuadraticForm.from_scaled((2,), (3,), ((1,),))
        assert a1 != e7
        two_a1 = FiniteQuadraticForm.from_scaled((2, 2), (1, 1),
                                                 ((1, 0), (0, 1)))
        glued = FiniteQuadraticForm.from_scaled((2, 2), (1, 1),
                                                ((1, 1), (1, 1)))
        assert two_a1 != glued

    def test_immutable(self):
        form = discriminant_form(A2)[0]
        with pytest.raises(AttributeError):
            form.qs = (0,)
        with pytest.raises(AttributeError):
            del form.orders
