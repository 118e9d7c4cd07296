from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordan_oracle import signature
from k3ade.exact_linalg import int_det
from k3ade.fqf import (
    TRIVIAL_FORM,
    discriminant_form,
    form_on_generators,
    group_order,
    make_form,
)
from k3ade.genus import exists_even_lattice


def rank1_form(d, num):
    q = F(num, d) % 2
    return make_form([d], [q], [[q % 1]])


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


class TestExistsEvenLattice:
    def test_e8_signature(self):
        assert exists_even_lattice(8, 0, TRIVIAL_FORM) is True

    def test_unimodular_rank_one(self):
        assert exists_even_lattice(1, 0, TRIVIAL_FORM) is False

    def test_unimodular_odd_ranks(self):
        for n in (1, 3, 5, 7, 9, 17):
            assert exists_even_lattice(n, 0, TRIVIAL_FORM) is False
            assert exists_even_lattice(0, n, TRIVIAL_FORM) is False

    def test_unimodular_rank_mod_eight(self):
        assert exists_even_lattice(0, 8, TRIVIAL_FORM) is True
        assert exists_even_lattice(16, 0, TRIVIAL_FORM) is True
        assert exists_even_lattice(4, 0, TRIVIAL_FORM) is False
        assert exists_even_lattice(1, 1, TRIVIAL_FORM) is True

    def test_a2_form_definite(self):
        assert exists_even_lattice(2, 0, rank1_form(3, 2)) is True
        assert exists_even_lattice(2, 0, rank1_form(3, 4)) is False

    def test_a2_form_transcendental_shape(self):
        assert exists_even_lattice(2, 16, rank1_form(3, 2)) is True
        assert exists_even_lattice(2, 16, rank1_form(3, 4)) is False

    def test_a1_form(self):
        assert exists_even_lattice(1, 0, rank1_form(2, 1)) is True
        assert exists_even_lattice(0, 1, rank1_form(2, 1)) is False
        assert exists_even_lattice(0, 1, rank1_form(2, 3)) is True

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            exists_even_lattice(0, 0, TRIVIAL_FORM)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exists_even_lattice(-1, 1, TRIVIAL_FORM)

    @given(even_grams())
    @settings(max_examples=100, deadline=None)
    def test_witness_soundness(self, gram):
        form, _ = discriminant_form(gram)
        r, s = signature(gram)
        assert exists_even_lattice(r, s, form) is True

    @given(even_grams())
    @settings(max_examples=60, deadline=None)
    def test_negated_witness(self, gram):
        neg = [[-x for x in row] for row in gram]
        form, _ = discriminant_form(neg)
        r, s = signature(gram)
        assert exists_even_lattice(s, r, form) is True

    @given(even_grams(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_presentation_independence(self, gram, data):
        form, _ = discriminant_form(gram)
        l = len(form.orders)
        perm = data.draw(st.permutations(range(l)))
        rows = [[1 if j == perm[i] else 0 for j in range(l)] for i in range(l)]
        shuffled = form_on_generators(form, rows)
        r, s = signature(gram)
        n = r + s
        for extra in (0, 1, 2):
            assert (exists_even_lattice(r + extra, s, form)
                    == exists_even_lattice(r + extra, s, shuffled))

    @given(even_grams())
    @settings(max_examples=40, deadline=None)
    def test_stability_under_e8(self, gram):
        form, _ = discriminant_form(gram)
        r, s = signature(gram)
        assert exists_even_lattice(r + 8, s, form) is True
        assert exists_even_lattice(r, s + 8, form) is True


class TestLargePrime:
    def test_rank_one_lattice_of_large_prime_determinant(self):
        # [[2p]] itself is the witness; deciding it must not take time
        # linear in p (the prime 10000019 took a second by full trial
        # division in the primality check).
        form, _ = discriminant_form([[2 * 10000019]])
        assert exists_even_lattice(1, 0, form) is True
