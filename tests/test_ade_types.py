"""Tests for ADE type grammar, invariants, Cartan and discriminant
data, stable automorphisms, and the specialization relation."""

from collections import Counter
from fractions import Fraction
from importlib.resources import files
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from k3ade.ade_types import (ADEType, EMPTY_TYPE, RULESETS, _component_group,
                             cartan_gram, closure, disc_form_closed,
                             enumerate_candidates, parse_type,
                             restricted_children)
from k3ade.exact_linalg import int_det
from k3ade.fqf import (TRIVIAL_FORM, discriminant_form, elements, eval_b,
                       eval_q, group_order)
from symmetry_oracle import ALL_COMPONENTS, generated_group, pieces


def load_types(name):
    text = files("k3ade.data").joinpath(name).read_text()
    rows = [line.strip() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    return [parse_type(row) for row in rows if row != "type"]


def table1_types_in_order():
    text = files("k3ade.data").joinpath("table1.tsv").read_text()
    rows = [line.split("\t") for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    return [parse_type(row[2]) for row in rows[1:]]


CANDIDATES = enumerate_candidates()

# Published per-rank counts used as oracles below.
EULER_BOUNDED_PER_RANK = [1, 2, 3, 6, 9, 16, 24, 39, 57, 88, 128, 193,
                          274, 393, 531, 688, 773, 712]
TRIVIAL_PER_RANK = [1, 2, 3, 6, 9, 16, 24, 39, 57, 88, 127, 189,
                    262, 360, 448, 500, 416, 199]
TWO_PER_RANK = [0] * 7 + [1, 2, 6, 13, 29, 53, 92, 133, 164, 155, 84]
THREE_PER_RANK = [0] * 11 + [1, 2, 6, 12, 21, 24, 19]
FOUR_PER_RANK = [0] * 13 + [1, 4, 10, 15, 11]
TWO_TWO_PER_RANK = [0] * 11 + [1, 2, 5, 10, 16, 16, 11]


class TestGrammar:
    @pytest.mark.parametrize("text", [
        "A1", "2A1", "12A1", "2E8+A2", "E7+D6+A5", "D4+2A3",
        "A17+A1", "E8+E7+A3", "3E6", "D18",
    ])
    def test_round_trip(self, text):
        assert str(parse_type(text)) == text

    @pytest.mark.parametrize("text,canonical", [
        ("a2 + 2 e8", "2E8+A2"),
        ("A1+A1+A1", "3A1"),
        ("A2+E8+E8", "2E8+A2"),
        ("D4 + A3 + A3", "D4+2A3"),
        ("A5+D6+E7", "E7+D6+A5"),
    ])
    def test_normalization(self, text, canonical):
        assert str(parse_type(text)) == canonical

    @pytest.mark.parametrize("text", [
        "D3", "E9", "E5", "A0", "B4", "", "2", "A", "E8++A2", "0A1",
        "A1+0", "A-1",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_type(text)

    def test_empty_type(self):
        t = parse_type("0")
        assert t is EMPTY_TYPE or t == EMPTY_TYPE
        assert t.is_empty and t.rank == 0 and t.euler == 0
        assert str(t) == "0"

    def test_constructor_normalizes(self):
        t = ADEType((("A", 2), ("E", 8), ("E", 8)))
        assert t == parse_type("2E8+A2")
        assert t.components == (("E", 8), ("E", 8), ("A", 2))

    @pytest.mark.parametrize("comp", [("D", 3), ("E", 5), ("A", 0), ("F", 4)])
    def test_constructor_rejects(self, comp):
        with pytest.raises(ValueError):
            ADEType((comp,))

    def test_runs(self):
        assert parse_type("2E8+A2").runs() == ((("E", 8), 2), (("A", 2), 1))

    @given(st.sampled_from(CANDIDATES))
    def test_parse_str_round_trip(self, t):
        assert parse_type(str(t)) == t


class TestRankEuler:
    @pytest.mark.parametrize("text,r,e", [
        ("2E8+A2", 18, 23),
        ("12A1", 12, 24),
        ("A1", 1, 2),
        ("A5", 5, 6),
        ("D5", 5, 7),
        ("E7", 7, 9),
        ("E8", 8, 10),
        ("D4+2A3", 10, 14),
    ])
    def test_examples(self, text, r, e):
        t = parse_type(text)
        assert (t.rank, t.euler) == (r, e)


class TestOrdering:
    def test_reference_table_order(self):
        types = table1_types_in_order()
        assert len(types) == 3279
        assert len(set(types)) == 3279
        assert sorted(types, key=ADEType.sort_key) == types

    def test_low_rank_order(self):
        assert [str(t) for t in CANDIDATES[:6]] == [
            "A1", "A2", "2A1", "A3", "A2+A1", "3A1"]


class TestEnumerate:
    def test_total_and_per_rank(self):
        assert len(CANDIDATES) == 3937
        assert len(set(CANDIDATES)) == 3937
        counts = Counter(t.rank for t in CANDIDATES)
        assert [counts[r] for r in range(1, 19)] == EULER_BOUNDED_PER_RANK

    def test_sorted(self):
        assert CANDIDATES == sorted(CANDIDATES, key=ADEType.sort_key)

    def test_bounds_respected(self):
        assert all(1 <= t.rank <= 18 and t.euler <= 24 for t in CANDIDATES)
        pool = set(CANDIDATES)
        assert parse_type("9A2") not in pool      # rank 18, euler 27
        assert parse_type("13A1") not in pool     # rank 13, euler 26
        assert parse_type("8A2") in pool          # rank 16, euler 24
        assert parse_type("12A1") in pool
        assert parse_type("D18") in pool
        assert parse_type("2E8+A2") in pool

    def test_small_bounds(self):
        assert [str(t) for t in enumerate_candidates(2, 24)] == [
            "A1", "A2", "2A1"]
        assert [str(t) for t in enumerate_candidates(4, 4)] == [
            "A1", "A2", "2A1", "A3"]


class TestCartanGram:
    def test_a1_a2(self):
        assert cartan_gram(parse_type("A1")) == [[2]]
        assert cartan_gram(parse_type("A2")) == [[2, 1], [1, 2]]

    def test_d4(self):
        assert cartan_gram(parse_type("D4")) == [
            [2, 0, 1, 0],
            [0, 2, 1, 0],
            [1, 1, 2, 1],
            [0, 0, 1, 2],
        ]

    def test_block_diagonal(self):
        assert cartan_gram(parse_type("2A1")) == [[2, 0], [0, 2]]

    @pytest.mark.parametrize("text,det", [
        *[(f"A{l}", l + 1) for l in range(1, 9)],
        *[(f"D{m}", 4) for m in range(4, 10)],
        ("E6", 3), ("E7", 2), ("E8", 1),
        ("2E8+A2", 3), ("D4+2A3", 64),
    ])
    def test_determinants(self, text, det):
        assert int_det(cartan_gram(parse_type(text))) == det

    @given(st.sampled_from(CANDIDATES))
    @settings(max_examples=40)
    def test_shape(self, t):
        g = cartan_gram(t)
        n = t.rank
        assert len(g) == n and all(len(row) == n for row in g)
        for i in range(n):
            assert g[i][i] == 2
            for j in range(i):
                assert g[i][j] == g[j][i] and g[i][j] in (0, 1)


DISC_SAMPLE = ["A1", "A2", "A5", "A10", "D4", "D5", "D6", "D8", "D9",
               "E6", "E7", "E8", "2E8+A2", "D4+2A3", "E7+D6+A5", "4A4"]


class TestDiscFormClosed:
    @pytest.mark.parametrize("text,orders,qdiag", [
        ("A1", (2,), ("1/2",)),
        ("A2", (3,), ("2/3",)),
        ("A5", (6,), ("5/6",)),
        ("D5", (4,), ("5/4",)),
        ("D6", (2, 2), ("3/2", "1")),
        ("D8", (2, 2), ("0", "1")),
        ("D9", (4,), ("1/4",)),
        ("E6", (3,), ("4/3",)),
        ("E7", (2,), ("3/2",)),
        ("E8", (), ()),
        ("2E8+A2", (3,), ("2/3",)),
    ])
    def test_closed_values(self, text, orders, qdiag):
        form, lifts = disc_form_closed(parse_type(text))
        assert form.orders == orders
        assert form.qdiag == tuple(Fraction(q) for q in qdiag)
        assert len(lifts) == len(orders)

    def test_d_even_pairing(self):
        form, _ = disc_form_closed(parse_type("D6"))
        assert form.bmat[0][1] == Fraction(1, 2)

    @pytest.mark.parametrize("text", DISC_SAMPLE)
    def test_matches_lattice(self, text):
        """The closed form evaluates exactly like the lattice
        discriminant form on the stated generator lifts."""
        t = parse_type(text)
        form, lifts = disc_form_closed(t)
        gram = cartan_gram(t)
        n = t.rank
        if n:
            assert group_order(form) == abs(int_det(gram))

        def pair(u, v):
            return sum(u[a] * gram[a][b] * v[b]
                       for a in range(n) for b in range(n))

        for i, u in enumerate(lifts):
            assert pair(u, u) % 2 == form.qdiag[i]
            assert lcm(*(x.denominator for x in u)) == form.orders[i]
            for j, v in enumerate(lifts):
                assert pair(u, v) % 1 == form.bmat[i][j]

        # The lifts generate the full discriminant group: distinct
        # classes mod Z^n are counted by fractional-part vectors.
        classes = set()
        for e in elements(form):
            vec = [sum(c * u[a] for c, u in zip(e, lifts)) % 1
                   for a in range(n)]
            classes.add(tuple(vec))
        assert len(classes) == group_order(form)

    @pytest.mark.parametrize("text", DISC_SAMPLE)
    def test_same_invariants_as_computed_form(self, text):
        t = parse_type(text)
        closed, _ = disc_form_closed(t)
        computed, _ = discriminant_form(cartan_gram(t)) if t.rank else (
            TRIVIAL_FORM, [])
        stats_closed = sorted(
            (eval_q(closed, e) for e in elements(closed)))
        stats_computed = sorted(
            (eval_q(computed, e) for e in elements(computed)))
        assert stats_closed == stats_computed


COMPONENT_NAMES = [f"{kind}{n}" for kind, n in ALL_COMPONENTS]


def _component_symmetries(text):
    """The form of a one-component type, its classes in code order and
    the permutations of _component_group, each as the tuple of images
    of the classes."""
    (comp,) = parse_type(text).components
    classes = pieces(comp)
    images = [tuple(classes[k] for k in g) for g in _component_group(comp)]
    return comp, disc_form_closed(parse_type(text))[0], classes, images


class TestGammaGenerators:
    # The per-component permutation groups against the generator
    # matrices of symmetry_oracle.py.
    @pytest.mark.parametrize("text", ["A1", "E7", "E8"])
    def test_trivial_action(self, text):
        _, _, classes, images = _component_symmetries(text)
        assert images == [tuple(classes)]

    @pytest.mark.parametrize("text,matrix", [
        ("A3", ((3,),)),
        ("A5", ((5,),)),
        ("D7", ((3,),)),
        ("E6", ((2,),)),
        ("D6", ((1, 1), (0, 1))),
    ])
    def test_single_generator(self, text, matrix):
        comp, _, _, images = _component_symmetries(text)
        assert len(images) == 2
        assert set(images) == generated_group(comp, (matrix,))

    def test_d4_full_symmetric_group(self):
        _, _, classes, images = _component_symmetries("D4")
        assert len(images) == 6
        assert {g[1:] for g in images} == set(permutations(classes[1:]))

    @pytest.mark.parametrize("text", COMPONENT_NAMES)
    def test_fixes_zero(self, text):
        comp, _, _, _ = _component_symmetries(text)
        assert all(g[0] == 0 for g in _component_group(comp))

    @pytest.mark.parametrize("text", COMPONENT_NAMES)
    def test_additive(self, text):
        _, form, classes, images = _component_symmetries(text)

        def add(x, y):
            return tuple((a + b) % d for a, b, d in zip(x, y, form.orders))

        for g in images:
            image = dict(zip(classes, g))
            for x in classes:
                for y in classes:
                    assert image[add(x, y)] == add(image[x], image[y])

    @pytest.mark.parametrize("text", COMPONENT_NAMES)
    def test_preserves_q_and_b(self, text):
        _, form, classes, images = _component_symmetries(text)
        for g in images:
            image = dict(zip(classes, g))
            assert set(image.values()) == set(image)
            for e, ie in image.items():
                assert eval_q(form, ie) == eval_q(form, e)
            for e in image:
                for f in image:
                    assert eval_b(form, image[e], image[f]) == \
                        eval_b(form, e, f)

    @pytest.mark.parametrize("text", COMPONENT_NAMES)
    def test_closed_and_generated(self, text):
        # Identity first, no repeats, closed under composition, and the
        # group that the oracle's matrices generate.
        comp, _, classes, images = _component_symmetries(text)
        group = _component_group(comp)
        assert group[0] == tuple(range(len(classes)))
        assert len(set(group)) == len(group)
        assert {tuple(g[k] for k in h) for g in group for h in group} \
            == set(group)
        assert set(images) == generated_group(comp)


class TestChildren:
    def test_e8(self):
        want = {"E7", "A7", "D7", "A6+A1", "A4+A2+A1", "A4+A3",
                "D5+A2", "E6+A1"}
        got = {str(c) for c in restricted_children(parse_type("E8"))}
        assert got == want

    @pytest.mark.parametrize("text,want", [
        ("D4", {"A3", "3A1"}),
        ("D5", {"A4", "A2+2A1", "A3+A1", "D4"}),
        ("E6", {"A5", "D5", "A4+A1", "2A2+A1"}),
        ("A1", set()),
        ("2A1", {"A1"}),
        ("A2", {"A1"}),
        ("A3", {"A2", "2A1"}),
        ("A2+A1", {"A1+A1", "A2"}),
    ])
    def test_elementary(self, text, want):
        got = {str(c) for c in restricted_children(parse_type(text))}
        assert got == {str(parse_type(w)) for w in want}

    @pytest.mark.parametrize("text,ruleset,want", [
        ("A3", "[2]", {"2A1"}),
        ("A3", "[4]", set()),
        ("A3", "[3]", {"A2", "2A1"}),
        ("D4", "[2]", {"3A1"}),
        ("D5", "[4]", {"A3+A1"}),
        ("E6", "[3]", {"A5", "2A2+A1"}),
        ("E7", "[2]", {"D6", "A5+A1", "A3+A2+A1", "D5+A1"}),
        ("E7", "[2,2]", {"D6", "A5+A1", "A3+A2+A1", "D5+A1",
                         "A6", "A4+A2", "E6"}),
        ("2A1", "[2]", set()),
        ("2A1", "[4]", set()),
        ("2A1", "[3]", {"A1"}),
        ("A5", "[3]", {"2A2"}),
    ])
    def test_restricted(self, text, ruleset, want):
        got = {str(c) for c in restricted_children(parse_type(text), ruleset)}
        assert got == {str(parse_type(w)) for w in want}

    def test_bad_ruleset(self):
        with pytest.raises(ValueError):
            restricted_children(parse_type("A2"), "[5]")
        with pytest.raises(ValueError):
            closure([parse_type("A2")], "[6]")

    def test_empty_type_has_no_children(self):
        assert restricted_children(EMPTY_TYPE) == set()

    @given(st.sampled_from(CANDIDATES), st.sampled_from(RULESETS))
    @settings(max_examples=120)
    def test_child_invariants(self, t, ruleset):
        kids = restricted_children(t, ruleset)
        assert kids <= restricted_children(t)
        for child in kids:
            assert not child.is_empty
            assert child.rank == t.rank - 1
            assert child.euler <= t.euler


class TestClosure:
    @pytest.mark.parametrize("seed,want", [
        ("A1", {"A1"}),
        ("A2", {"A2", "A1"}),
        ("A3", {"A3", "A2", "2A1", "A1"}),
    ])
    def test_small(self, seed, want):
        got = {str(t) for t in closure([parse_type(seed)])}
        assert got == want

    def test_empty_seed_dropped(self):
        assert closure([EMPTY_TYPE]) == set()

    def test_seeds_included(self):
        seeds = [parse_type("E8"), parse_type("D4")]
        assert set(seeds) <= closure(seeds)

    @pytest.mark.parametrize("fixture,ruleset,total,per_rank", [
        ("rank18_1.tsv", "trivial", 2746, TRIVIAL_PER_RANK),
        ("seeds_2.tsv", "[2]", 732, TWO_PER_RANK),
        ("seeds_3.tsv", "[3]", 85, THREE_PER_RANK),
        ("seeds_4.tsv", "[4]", 41, FOUR_PER_RANK),
        ("seeds_22.tsv", "[2,2]", 61, TWO_TWO_PER_RANK),
    ])
    def test_reference_counts(self, fixture, ruleset, total, per_rank):
        closed = closure(load_types(fixture), ruleset)
        assert len(closed) == total
        counts = Counter(t.rank for t in closed)
        assert [counts[r] for r in range(1, 19)] == per_rank

    @pytest.mark.parametrize("seeds,rank18", [
        ("seeds_2.tsv", "rank18_2.tsv"),
        ("seeds_3.tsv", "rank18_3.tsv"),
        ("seeds_4.tsv", "rank18_4.tsv"),
        ("seeds_22.tsv", "rank18_22.tsv"),
    ])
    def test_rank18_slice(self, seeds, rank18):
        ruleset = {"seeds_2.tsv": "[2]", "seeds_3.tsv": "[3]",
                   "seeds_4.tsv": "[4]", "seeds_22.tsv": "[2,2]"}[seeds]
        closed = closure(load_types(seeds), ruleset)
        top = {t for t in closed if t.rank == 18}
        assert top == set(load_types(rank18))

    def test_closure_inside_candidates(self):
        closed = closure(load_types("rank18_1.tsv"))
        assert closed <= set(CANDIDATES)
