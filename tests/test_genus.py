import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordan_oracle import gauss_signature, signature
from k3ade import classifier, genus, local_invariants
from k3ade.exact_linalg import int_det, prime_factors, square_class
from k3ade.fqf import (
    TRIVIAL_FORM,
    discriminant_form,
    form_on_generators,
    group_order,
    make_form,
    p_part,
)
from k3ade.genus import _convolve8, exists_even_lattice
from k3ade.local_invariants import local_invariant_set


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


def _sum_hits(choice_sets, target):
    """Whether target is a sum mod 8 of one element from each set."""
    sums = {0}
    for choices in choice_sets:
        sums = {(a + c) % 8 for a in sums for c in choices}
    return target in sums


def _bits(mask):
    return {e for e in range(8) if mask >> e & 1}


class TestConvolve8:
    def test_matches_set_sumset(self):
        # Every pair of 8-bit masks; each bit t of the result must say
        # whether t is a sum (a + c) % 8 of the two sets.
        sets = [_bits(mask) for mask in range(256)]
        for a, sa in enumerate(sets):
            for b, sb in enumerate(sets):
                sums = {(x + y) % 8 for x in sa for y in sb}
                assert _bits(_convolve8(a, b)) == sums, (a, b)


def model_exists(r, s, q):
    """The decision asked afresh per question: for each p, the rank-n
    invariant set of the p-part filtered by the wanted reduced
    discriminant, then the global relation on the excesses."""
    n = r + s
    d = (-1) ** s * group_order(q)
    sigmas = []
    for p in sorted(set([2] + prime_factors(d))):
        delta = d
        while delta % p == 0:
            delta //= p
        want = square_class(delta, p)
        choices = {e for e, u in local_invariant_set(p, n, p_part(q, p))
                   if u == want}
        if not choices:
            return False
        sigmas.append(choices)
    return _sum_hits(sigmas, (n - r + s) % 8)


def seeded_forms(seed, count):
    """Discriminant forms of random nondegenerate even lattices of rank
    1-6, with the exact signature of each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-6, 6)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        if int_det(gram) != 0:
            out.append((discriminant_form(gram)[0], signature(gram)))
    return out


SIGNATURES = [(r, n - r) for n in range(1, 27) for r in range(n + 1)]


def cache_sizes():
    return (genus._local_data.cache_info().currsize,
            len(local_invariants._SET_CACHE),
            len(local_invariants._REC_CACHE),
            local_invariants.unimodular_set.cache_info().currsize,
            classifier._exists_cached.cache_info().currsize)


class TestPerFormLookup:
    def test_matches_per_question_model(self):
        forms = seeded_forms("genus-lookup", 300)
        questions = [(k, r, s) for k in range(len(forms))
                     for r, s in SIGNATURES]
        rng = random.Random("genus-lookup-order")
        classifier.clear_caches()
        answers = {}
        for warm in (False, True):
            rng.shuffle(questions)
            for k, r, s in questions:
                got = exists_even_lattice(r, s, forms[k][0])
                if warm:
                    assert got is answers[k, r, s], (k, r, s, warm)
                else:
                    answers[k, r, s] = got
        mismatches = [key for key, got in answers.items()
                      if model_exists(key[1], key[2], forms[key[0]][0])
                      is not got]
        assert mismatches == []
        # The lattice each form comes from answers yes.
        assert all(answers[k, r, s] for k, (_, (r, s)) in enumerate(forms))
        assert 0 < sum(answers.values()) < len(answers)

    def test_every_yes_meets_milgram(self):
        # A second route to every "yes" that uses no local invariant:
        # the Gauss sum of q fixes r - s mod 8.
        checked = 0
        for form, _ in seeded_forms("genus-milgram", 300):
            if group_order(form) > 500:
                continue
            yes = [(r, s) for r, s in SIGNATURES
                   if exists_even_lattice(r, s, form)]
            assert yes
            sig = gauss_signature(form)
            assert [rs for rs in yes if (rs[0] - rs[1]) % 8 != sig] == []
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("r,s", [(-1, 3), (2, -1), (0, 0)])
    def test_bad_signature_touches_no_cache(self, r, s):
        form, _ = seeded_forms(f"genus-bad:{r}:{s}", 1)[0]
        before = cache_sizes()
        with pytest.raises(ValueError):
            exists_even_lattice(r, s, form)
        with pytest.raises(ValueError):
            classifier._exists_cached(r, s, form)
        assert cache_sizes() == before
