"""Times at the reference speed follow the work, not the host's speed.

Run with: python3 -m pytest k3bench/test_reference.py
"""

from __future__ import annotations

import signal
import time

import pytest

import reference
from reference import REF_SLICE_S, WINDOW, Meter


def _meter(stretches, slice_times):
    m = Meter()
    m.stretches = [(w, w) for w in stretches]
    m.slices = [(s, s) for s in slice_times]
    return m


def test_scale_is_proportional_to_the_work():
    assert reference.scale(2.0, [REF_SLICE_S]) == pytest.approx(2.0)
    assert reference.scale(2.0, [2 * REF_SLICE_S]) == pytest.approx(1.0)
    assert reference.scale(4.0, [2 * REF_SLICE_S] * 3) == pytest.approx(2.0)


def test_a_host_slow_for_a_while_leaves_the_work_time_unchanged():
    fast = [0.02] * 20
    slow = [0.02] * 10 + [0.04] * 10
    lead = WINDOW - 1
    ref = REF_SLICE_S
    # Slices before, between and after the stretches; the slow stretches
    # are surrounded by slices twice as slow.
    even = _meter(fast, [ref] * (lead + 21 + WINDOW - 1))
    drift = _meter(slow, [ref] * (lead + 11) + [2 * ref] * (10 + WINDOW - 1))
    w_even, c_even = even.at_reference()
    w_drift, _ = drift.at_reference()
    assert w_even == pytest.approx(0.4)
    assert c_even == pytest.approx(0.4)
    # Only the stretches at the change of speed see a mixed window.
    assert w_drift == pytest.approx(0.4, rel=0.15)


def test_a_slower_program_reads_slower():
    slices = [REF_SLICE_S] * (WINDOW - 1 + 21 + WINDOW - 1)
    base, _ = _meter([0.02] * 20, slices).at_reference()
    slower, _ = _meter([0.022] * 20, slices).at_reference()
    assert slower / base == pytest.approx(1.1)


def test_the_timer_cuts_the_work_into_stretches_and_is_removed():
    before = signal.getsignal(signal.SIGALRM)
    m = Meter()
    m.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    m.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(m.stretches) >= 5
    assert len(m.slices) == len(m.stretches) + 2 * WINDOW - 1
    wall, _ = m.raw()
    assert 0.15 < wall < 0.3
    assert m.at_reference()[0] > 0
