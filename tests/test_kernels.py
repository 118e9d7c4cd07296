"""Tests for the scan kernels: the meet-in-the-middle isotropy scan and
the orthogonality filter against the generic form evaluators, on the
closed forms of the candidate types and on random presentations."""

import random

import pytest

from k3ade.ade_types import (closed_form, disc_form_closed,
                             enumerate_candidates, parse_type)
from k3ade.fqf import (TRIVIAL_FORM, FiniteQuadraticForm, elements, eval_b,
                       eval_q)
from k3ade.kernels import (backend, isotropic_list, orthogonal_filter,
                           orthogonal_mask)
from test_fqf import random_presentation


def form_of(text):
    return disc_form_closed(parse_type(text))[0]


class TestBackendSelection:
    def test_reported_backend(self):
        assert backend() == "python"


class TestAgainstGenericEvaluators:
    @pytest.mark.parametrize("text", ["A1", "8A1", "4A2", "A5+A2+A1",
                                      "D4+2A1", "2A3+2A1", "2E8+A2",
                                      "D5+A3", "6A3"])
    def test_isotropic_list(self, text):
        form = form_of(text)
        got = isotropic_list(form)
        assert len(set(got)) == len(got)
        assert set(got) == {x for x in elements(form) if eval_q(form, x) == 0}

    def test_isotropic_list_odometer_order(self):
        form = form_of("4A1")
        got = isotropic_list(form)
        assert got == sorted(got)

    def test_odometer_order_on_candidate_types(self):
        for sigma in enumerate_candidates(18, 24)[::10]:
            got = isotropic_list(closed_form(sigma))
            assert got == sorted(got), sigma

    @pytest.mark.parametrize("text", ["8A1", "4A2", "D4+2A1",
                                      "A5+A2+A1"])
    def test_orthogonal_filter(self, text):
        form = form_of(text)
        iso = isotropic_list(form)
        for v in iso[:6] + iso[-3:]:
            got = orthogonal_filter(form, iso, v)
            want = [w for w in iso if eval_b(form, v, w) == 0]
            assert got == want

    @pytest.mark.parametrize("text", ["8A1", "4A2", "D4+2A1",
                                      "A5+A2+A1", "D5+A3"])
    def test_orthogonal_mask(self, text):
        form = form_of(text)
        iso = isotropic_list(form)
        vs = iso[:5] + iso[-4:]
        got = orthogonal_mask(form, vs, iso)
        assert len(got) == len(vs)
        assert all(len(row) == len(iso) for row in got)
        assert got == [[eval_b(form, v, w) == 0 for w in iso] for v in vs]

    def test_trivial_form(self):
        form = form_of("2E8+A2")
        # E8 contributes no generators; only the A2 part remains.
        assert isotropic_list(form) == [(0,)]


def random_forms(seed, count, max_rank):
    rng = random.Random(seed)
    return [FiniteQuadraticForm(*random_presentation(
        rng, [2, 3, 4, 5, 6, 8, 9, 25], max_rank)) for _ in range(count)]


class TestNumpyScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_presentations(self, seed):
        # Against the Fraction evaluator over the odometer.
        for form in random_forms(seed, 40, 4):
            got = isotropic_list(form)
            assert got == [x for x in elements(form)
                           if eval_q(form, x) == 0]

    @pytest.mark.parametrize("seed", range(2))
    def test_orthogonal_filter_random(self, seed):
        for form in random_forms(100 + seed, 25, 3):
            pool = list(elements(form))
            for v in pool[:: max(1, len(pool) // 7)]:
                got = orthogonal_filter(form, pool, v)
                assert got == [w for w in pool if eval_b(form, v, w) == 0]
            vs = pool[:: max(1, len(pool) // 5)]
            assert orthogonal_mask(form, vs, pool) == [
                [eval_b(form, v, w) == 0 for w in pool] for v in vs]

    def test_no_generators(self):
        assert isotropic_list(TRIVIAL_FORM) == [()]
        assert orthogonal_filter(TRIVIAL_FORM, [()], ()) == [()]
        assert orthogonal_filter(form_of("8A1"), [], (1,) * 8) == []
        assert orthogonal_mask(TRIVIAL_FORM, [(), ()], [()]) == [
            [True], [True]]
        assert orthogonal_mask(form_of("8A1"), [(1,) * 8], []) == [[]]

    @pytest.mark.parametrize("seed", range(3))
    def test_paired_cut(self, seed):
        # Random presentations, many of which split as no direct sum, so
        # the cut must fall where no pairing crosses; the scan must still
        # give the one-line scan, in odometer order.
        rng = random.Random(200 + seed)
        for _ in range(60):
            form = FiniteQuadraticForm(*random_presentation(
                rng, [2, 3, 4, 5, 6, 8, 9, 12], 5))
            assert isotropic_list(form) == [
                x for x in elements(form) if eval_q(form, x) == 0]

    def test_orthogonal_past_int64(self):
        # The hyperbolic plane over Z/d, d = 3 * 10^9: n E max(orders)
        # = 1.8 * 10^19 is past int64, and so are the products of the
        # largest coefficients; the mask is still exact.
        d = 3 * 10 ** 9
        form = FiniteQuadraticForm.from_scaled((d, d), (0, 0),
                                               ((0, 1), (1, 0)))
        vs = [(0, 1), (d - 1, d - 1), (d - 1, 1)]
        pool = [(1, 0), (0, d - 1), (d - 1, 1), (1, d - 1), (d - 1, d - 1)]
        got = orthogonal_mask(form, vs, pool)
        assert got == [[eval_b(form, v, w) == 0 for w in pool] for v in vs]
        assert got == [[False, True, False, False, False],
                       [False, False, True, True, False],
                       [False, False, False, False, True]]
