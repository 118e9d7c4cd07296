"""Tests for the scan-kernel dispatch: backend selection, agreement
between the compiled and pure implementations, and consistency with
the generic form evaluators."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from k3ade import _purecore
from k3ade.ade_types import disc_form_closed, parse_type
from k3ade.fqf import (elements, eval_b, eval_q, isotropic_elements,
                       make_form)
from k3ade.kernels import backend, isotropic_list, orthogonal_filter


def form_of(text):
    return disc_form_closed(parse_type(text))[0]


class TestBackendSelection:
    def test_reported_backend(self):
        if os.environ.get("K3ADE_PURE"):
            assert backend() == "pure"
        else:
            assert backend() in ("compiled", "pure")

    def test_pure_env_forces_fallback(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from k3ade.kernels import backend; print(backend())"],
            env={**os.environ, "K3ADE_PURE": "1"},
            capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "pure"


class TestAgainstGenericEvaluators:
    @pytest.mark.parametrize("text", ["A1", "8A1", "4A2", "A5+A2+A1",
                                      "D4+2A1", "2A3+2A1", "2E8+A2",
                                      "D5+A3"])
    def test_isotropic_list(self, text):
        form = form_of(text)
        got = isotropic_list(form)
        assert len(set(got)) == len(got)
        assert set(got) == isotropic_elements(form)
        assert all(eval_q(form, x) == 0 for x in got)

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

    def test_trivial_form(self):
        form = form_of("2E8+A2")
        # E8 contributes no generators; only the A2 part remains.
        assert isotropic_list(form) == [(0,)]


@pytest.fixture(scope="module")
def core():
    # Only the mirror tests need the compiled extension; a module-level
    # importorskip would skip every test of this file without it.
    return pytest.importorskip("k3ade._core")


def _form_strategy():
    order = st.sampled_from([2, 3, 4, 5, 7, 8, 9])
    return st.lists(order, min_size=1, max_size=4)


class TestCompiledMirrorsPure:
    @pytest.mark.parametrize("text", ["12A1", "8A2", "6A3", "3A6",
                                      "2A7+A3+A1", "3A5+3A1"])
    def test_iso_scan_on_type_forms(self, core, text):
        form = form_of(text)
        args = (list(form.orders), list(form.qs),
                [list(row) for row in form.bs], 2 * form.exp)
        assert core.iso_scan(*args) == _purecore.iso_scan(*args)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_tables(self, core, data):
        orders = data.draw(_form_strategy())
        n = len(orders)
        two_e = 2 * data.draw(st.integers(min_value=1, max_value=24))
        e = two_e // 2
        q2 = [data.draw(st.integers(min_value=0, max_value=two_e - 1))
              for _ in range(n)]
        b1 = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                b1[i][j] = b1[j][i] = data.draw(
                    st.integers(min_value=0, max_value=e - 1)) if e else 0
        got = core.iso_scan(orders, q2, b1, two_e)
        want = _purecore.iso_scan(orders, q2, b1, two_e)
        assert got == want
        pool = [tuple(data.draw(st.integers(0, d - 1)) for d in orders)
                for _ in range(8)]
        bv = [data.draw(st.integers(min_value=0, max_value=max(e - 1, 0)))
              for _ in range(n)]
        assert core.orth_scan(pool, bv, max(e, 1)) \
            == _purecore.orth_scan(pool, bv, max(e, 1))

    def test_empty_generator_list(self, core):
        assert core.iso_scan([], [], [], 2) == [()]
        assert _purecore.iso_scan([], [], [], 2) == [()]

    def test_orth_scan_empty_pool(self, core):
        assert core.orth_scan([], [1, 2], 4) == []
