"""Tests for the scan kernels: the numpy isotropy scan and the
orthogonality filter against the generic form evaluators, and the
scan's int64 guard."""

import random

import pytest

from k3ade.ade_types import disc_form_closed, parse_type
from k3ade.fqf import (TRIVIAL_FORM, FiniteQuadraticForm, elements, eval_b,
                       eval_q)
from k3ade.kernels import (backend, isotropic_list, orthogonal_filter,
                           orthogonal_mask)
from test_fqf import random_presentation


def form_of(text):
    return disc_form_closed(parse_type(text))[0]


class TestBackendSelection:
    def test_reported_backend(self):
        assert backend() == "numpy"


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
        assert got.shape == (len(vs), len(iso))
        assert got.tolist() == [[eval_b(form, v, w) == 0 for w in iso]
                                for v in vs]

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
            assert orthogonal_mask(form, vs, pool).tolist() == [
                [eval_b(form, v, w) == 0 for w in pool] for v in vs]

    def test_no_generators(self):
        assert isotropic_list(TRIVIAL_FORM) == [()]
        assert orthogonal_filter(TRIVIAL_FORM, [()], ()) == [()]
        assert orthogonal_filter(form_of("8A1"), [], (1,) * 8) == []
        assert orthogonal_mask(TRIVIAL_FORM, [(), ()], [()]).tolist() == [
            [True], [True]]
        assert orthogonal_mask(form_of("8A1"), [(1,) * 8], []).shape == (1, 0)

    def test_orthogonal_int64_guard(self):
        # The hyperbolic plane over Z/d, d = 3 * 10^9: n E max(orders)
        # = 1.8 * 10^19 is past int64, although each pairing fits.
        d = 3 * 10 ** 9
        form = FiniteQuadraticForm.from_scaled((d, d), (0, 0),
                                               ((0, 1), (1, 0)))
        with pytest.raises(RuntimeError, match="int64"):
            orthogonal_mask(form, [(0, 1)], [(1, 0)])

    def test_int64_guard(self):
        # Z/d with q(g) = (2d - 2)/d: the largest value of x^T M x is
        # (d - 1)^2 (2d - 2), past int64 for d = 2 * 10^6, while the
        # group has only 2 * 10^6 elements, so the scan must refuse the
        # form up front rather than overflow.
        d = 2 * 10 ** 6
        form = FiniteQuadraticForm.from_scaled((d,), (2 * d - 2,),
                                               ((d - 2,),))
        with pytest.raises(RuntimeError, match="int64"):
            isotropic_list(form)
