import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordan_oracle import (
    U_BLOCK,
    UNIT,
    V_BLOCK,
    JordanBlock,
    jordan_blocks,
    p_excess,
    reddisc,
    signature,
)
from k3ade.exact_linalg import int_det, square_class
from k3ade.fqf import (
    TRIVIAL_FORM,
    discriminant_form,
    form_on_generators,
    group_order,
    make_form,
    p_part,
)
from k3ade.local_invariants import (
    IDENTITY,
    local_invariant_set,
    minimal_rank_set,
    rank_le2_set,
    star,
    unimodular_set,
)

A1 = [[2]]
A2 = [[2, 1], [1, 2]]
D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
U_GRAM = [[0, 1], [1, 0]]


def inv(p, excess, tag):
    """The pair (excess mod 8, square class) for a tag written as in the
    literature: +-1 at odd p, the unit mod 8 at p = 2."""
    if p == 2:
        assert tag in (1, 3, 5, 7)
    else:
        assert tag in (1, -1)
    return (excess % 8, tag % 8)


def iset(p, *pairs):
    return frozenset(inv(p, e, t) for e, t in pairs)


def rank1_form(d, num):
    q = F(num, d) % 2
    return make_form([d], [q], [[q % 1]])


Q_D4 = make_form([2, 2], [1, 1], [[0, F(1, 2)], [F(1, 2), 0]])
Q_EVEN_U = make_form([2, 2], [0, 0], [[0, F(1, 2)], [F(1, 2), 0]])


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


def primes_of(n):
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


class TestPExcess:
    def test_odd_unimodular_block(self):
        assert p_excess([JordanBlock(0, UNIT, 1)], 3) == 0

    def test_u_block(self):
        assert p_excess([JordanBlock(0, U_BLOCK)], 2) == 2
        assert reddisc([JordanBlock(0, U_BLOCK)], 2) == 7

    def test_scaled_v_block(self):
        assert p_excess([JordanBlock(1, V_BLOCK)], 2) == 6

    def test_unscaled_v_block(self):
        assert p_excess([JordanBlock(0, V_BLOCK)], 2) == 2

    def test_two_adic_units(self):
        assert p_excess([JordanBlock(1, UNIT, 1)], 2) == 0
        assert p_excess([JordanBlock(1, UNIT, 3)], 2) == 2
        assert p_excess([JordanBlock(1, UNIT, 7)], 2) == 2
        assert p_excess([JordanBlock(2, UNIT, 3)], 2) == 6

    def test_odd_p_nonsquare_at_odd_scale(self):
        assert p_excess([JordanBlock(1, UNIT, 2)], 3) == 6

    def test_rejects_uv_at_odd_p(self):
        with pytest.raises(ValueError):
            p_excess([JordanBlock(0, U_BLOCK)], 3)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            p_excess([JordanBlock(0, UNIT, 6)], 3)


class TestReddisc:
    def test_v_block(self):
        assert reddisc([JordanBlock(1, V_BLOCK)], 2) == 3

    def test_odd_nonsquare(self):
        assert reddisc([JordanBlock(1, UNIT, 2)], 3) == 7

    def test_empty_product(self):
        assert reddisc([], 5) == 1
        assert p_excess([], 5) == 0

    def test_product(self):
        blocks = [JordanBlock(0, U_BLOCK), JordanBlock(0, V_BLOCK)]
        assert reddisc(blocks, 2) == 5


class TestStar:
    def test_identity(self):
        s = iset(2, (2, 7), (4, 3))
        assert star(s, IDENTITY) == s
        assert star(IDENTITY, s) == s

    def test_example(self):
        assert star(iset(2, (2, 7)), iset(2, (2, 3))) == iset(2, (4, 5))

    def test_empty_absorbs(self):
        assert star(frozenset(), iset(2, (2, 7))) == frozenset()

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_commutative_associative(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        tags = (1, 3, 5, 7) if p == 2 else (1, -1)
        def sets():
            pairs = data.draw(st.lists(
                st.tuples(st.integers(0, 7), st.sampled_from(tags)),
                min_size=0, max_size=3))
            return iset(p, *pairs)
        s1, s2, s3 = sets(), sets(), sets()
        assert star(s1, s2) == star(s2, s1)
        assert star(star(s1, s2), s3) == star(s1, star(s2, s3))


class TestUnimodularSet:
    def test_odd_p(self):
        assert unimodular_set(3, 0) == iset(3, (0, 1))
        assert unimodular_set(3, 2) == iset(3, (0, 1), (0, -1))
        assert unimodular_set(5, 17) == iset(5, (0, 1), (0, -1))

    def test_p2_odd_rank_empty(self):
        assert unimodular_set(2, 1) == frozenset()
        assert unimodular_set(2, 17) == frozenset()

    def test_p2_rank_zero(self):
        assert unimodular_set(2, 0) == iset(2, (0, 1))

    def test_p2_even_ranks(self):
        assert unimodular_set(2, 2) == iset(2, (2, 3), (2, 7))
        assert unimodular_set(2, 4) == iset(2, (4, 1), (4, 5))
        assert unimodular_set(2, 18) == iset(2, (2, 3), (2, 7))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            unimodular_set(3, -1)


class TestRankLe2Set:
    def test_odd_p_square(self):
        assert rank_le2_set(3, rank1_form(3, 4)) == iset(3, (2, 1))

    def test_odd_p_nonsquare_odd_scale(self):
        assert rank_le2_set(3, rank1_form(3, 2)) == iset(3, (6, -1))

    def test_odd_p_nonsquare_even_scale(self):
        assert rank_le2_set(3, rank1_form(9, 2)) == iset(3, (0, -1))

    def test_two_adic_scale_one(self):
        assert rank_le2_set(2, rank1_form(2, 1)) == iset(2, (0, 1), (0, 5))
        assert rank_le2_set(2, rank1_form(2, 3)) == iset(2, (2, 3), (2, 7))

    def test_two_adic_higher_scale(self):
        assert rank_le2_set(2, rank1_form(4, 3)) == iset(2, (6, 3))
        assert rank_le2_set(2, rank1_form(4, 7)) == iset(2, (2, 7))
        assert rank_le2_set(2, rank1_form(8, 1)) == iset(2, (0, 1))

    def test_rank2_v_like(self):
        assert rank_le2_set(2, Q_D4) == iset(2, (6, 3))

    def test_rank2_u_like(self):
        assert rank_le2_set(2, Q_EVEN_U) == iset(2, (2, 7))

    def test_rejects_rank2_odd_p(self):
        form = make_form([3, 3], [F(2, 3), F(2, 3)],
                         [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
        with pytest.raises(ValueError):
            rank_le2_set(3, form)

    def test_rejects_non_unit_numerator(self):
        with pytest.raises(ValueError):
            rank_le2_set(3, rank1_form(9, 6))

    def test_rejects_even_pairing(self):
        form = make_form([4, 4], [F(1, 2), F(1, 2)],
                         [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        with pytest.raises(ValueError):
            rank_le2_set(2, form)


class TestLocalInvariantSet:
    def test_a1_rank1(self):
        q2 = p_part(discriminant_form(A1)[0], 2)
        assert local_invariant_set(2, 1, q2) == iset(2, (0, 1), (0, 5))

    def test_a2_rank2_at_3(self):
        q3 = p_part(discriminant_form(A2)[0], 3)
        assert local_invariant_set(3, 2, q3) == iset(3, (6, 1), (6, -1))

    def test_underfull_rank_empty(self):
        q2 = p_part(discriminant_form(A1)[0], 2)
        assert local_invariant_set(2, 0, q2) == frozenset()

    def test_d4(self):
        q2 = discriminant_form(D4)[0]
        assert local_invariant_set(2, 2, q2) == iset(2, (6, 3))
        assert local_invariant_set(2, 4, q2) == iset(2, (0, 1), (0, 5))

    def test_trivial_form(self):
        assert local_invariant_set(2, 18, TRIVIAL_FORM) == iset(2, (2, 3), (2, 7))
        assert local_invariant_set(3, 18, TRIVIAL_FORM) == iset(3, (0, 1), (0, -1))

    def test_rejects_mixed_form(self):
        with pytest.raises(ValueError):
            local_invariant_set(2, 4, discriminant_form(A2)[0])

    @given(even_grams(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_honest_lattice_invariants_are_in_set(self, gram, data):
        form, _ = discriminant_form(gram)
        n = len(gram)
        det = int_det(gram)
        ps = sorted(set([2] + primes_of(det)))
        p = data.draw(st.sampled_from(ps))
        blocks = jordan_blocks(gram, p)
        honest = (p_excess(blocks, p), reddisc(blocks, p))
        assert honest in local_invariant_set(p, n, p_part(form, p))
        delta = det
        while delta % p == 0:
            delta //= p
        assert honest[1] == square_class(delta, p)

    @given(even_grams(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_generator_permutation_invariance(self, gram, data):
        form, _ = discriminant_form(gram)
        p = data.draw(st.sampled_from(primes_of(group_order(form)) or [2]))
        qp = p_part(form, p)
        l = len(qp.orders)
        perm = data.draw(st.permutations(range(l)))
        rows = [[1 if j == perm[i] else 0 for j in range(l)] for i in range(l)]
        shuffled = form_on_generators(qp, rows)
        for n in (l, l + 1, l + 2):
            assert (local_invariant_set(p, n, qp)
                    == local_invariant_set(p, n, shuffled))


def permuted(form, perm):
    """The form on its generators taken in the order perm."""
    l = len(form.orders)
    return form_on_generators(
        form, [[int(j == i) for j in range(l)] for i in perm])


def oracle_invariant(gram, p):
    blocks = jordan_blocks(gram, p)
    return (p_excess(blocks, p), reddisc(blocks, p))


def direct_gram(*grams):
    n = sum(map(len, grams))
    out = [[0] * n for _ in range(n)]
    base = 0
    for g in grams:
        for i, row in enumerate(g):
            out[base + i][base:base + len(row)] = row
        base += len(g)
    return out


class TestUnsortedSplit:
    # The split reads the presentation as given: a top-order generator
    # that is not first is found from the exponent, in every order of
    # the generators, with the set the Jordan oracle gives.

    def test_rejects_order_not_a_power_of_p(self):
        with pytest.raises(ValueError, match="p-group"):
            minimal_rank_set(2, make_form([6], [F(1, 6)], [[F(1, 6)]]))

    def test_rank2_split_with_top_order_second(self):
        # <1/2> + the U-block of 8U at scale 8: no generator pairs with
        # itself at full scale, so the split takes the 8-block.  Both
        # rank-3 lattices [2] + 8U and [10] + 8U have this 2-part.
        form = make_form([2, 8, 8], [F(1, 2), 0, 0],
                         [[F(1, 2), 0, 0], [0, 0, F(1, 8)], [0, F(1, 8), 0]])
        grams = [direct_gram([[a]], [[0, 8], [8, 0]]) for a in (2, 10)]
        for g in grams:
            assert p_part(discriminant_form(g)[0], 2).orders == (2, 8, 8)
        want = frozenset(oracle_invariant(g, 2) for g in grams)
        assert len(want) == 2
        for perm in itertools.permutations(range(3)):
            assert minimal_rank_set(2, permuted(form, perm)) == (3, want)

    def test_odd_repair_with_top_order_second(self):
        # <2/3> + the hyperbolic 9-block of 9U: no generator pairs with
        # itself at full scale, so a 9-generator is repaired first.  It
        # is the 3-part of the rank-3 lattice [6] + 9U.
        form = make_form([3, 9, 9], [F(2, 3), 0, 0],
                         [[F(2, 3), 0, 0], [0, 0, F(1, 9)], [0, F(1, 9), 0]])
        gram = direct_gram([[6]], [[0, 9], [9, 0]])
        lattice_form = p_part(discriminant_form(gram)[0], 3)
        want = (3, frozenset({oracle_invariant(gram, 3)}))
        assert minimal_rank_set(3, lattice_form) == want
        for perm in itertools.permutations(range(3)):
            assert minimal_rank_set(3, permuted(form, perm)) == want


class TestJordanOracleAgreement:
    def test_known_decompositions(self):
        assert jordan_blocks(A1, 2) == [JordanBlock(1, UNIT, 1)]
        assert jordan_blocks(U_GRAM, 2) == [JordanBlock(0, U_BLOCK)]
        assert jordan_blocks(A2, 2) == [JordanBlock(0, V_BLOCK)]
        assert p_excess(jordan_blocks(A2, 3), 3) == 6
        assert reddisc(jordan_blocks(A2, 3), 3) == 1

    def test_signature(self):
        assert signature(A2) == (2, 0)
        assert signature(U_GRAM) == (1, 1)
        assert signature([[-2, 1], [1, -2]]) == (0, 2)

    @given(even_grams(2), even_grams(2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, g1, g2, data):
        n1, n2 = len(g1), len(g2)
        block = [row + [0] * n2 for row in g1] + [[0] * n1 + row for row in g2]
        p = data.draw(st.sampled_from(
            sorted(set([2] + primes_of(int_det(g1)) + primes_of(int_det(g2))))))
        b1, b2, bb = (jordan_blocks(g, p) for g in (g1, g2, block))
        assert p_excess(bb, p) == (p_excess(b1, p) + p_excess(b2, p)) % 8
        assert reddisc(bb, p) == reddisc(b1, p) * reddisc(b2, p) % 8

    @given(even_grams())
    @settings(max_examples=80, deadline=None)
    def test_global_excess_relation(self, gram):
        r, s = signature(gram)
        n = r + s
        det = int_det(gram)
        total = 0
        for p in sorted(set([2] + primes_of(det))):
            total += p_excess(jordan_blocks(gram, p), p)
        assert (r - s + total) % 8 == n % 8
