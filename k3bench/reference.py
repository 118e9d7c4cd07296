"""The host's speed, measured by a fixed reference slice of work.

On a shared virtual machine the speed of the host drifts: identical
rounds of one workload took between 4.6 and 11.3 s within two minutes,
and their CPU time drifted with them, so the slow phases are not waits
but a slower processor.  A timing taken alone then measures the host's
load as much as the program.

The *reference slice* is a fixed piece of pure-Python exact arithmetic
of the kind the program does (a Gauss-Jordan inverse over ``Fraction``
and a breadth-first orbit of integer tuples in a set) of 2.5 to 3.5 ms.
It imports nothing from ``k3ade``, so no change to the program moves it.
``Meter`` interrupts the work every 20 ms for one slice and divides the
time of each stretch of work between two slices by the median time of
the slices around it; multiplied by ``REF_SLICE_S`` this gives the
stretch's time at the reference speed.  A program that gets slower by some share gets slower
by that share at the reference speed too; a slower host does not.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from fractions import Fraction

#: Nominal time of one slice, in seconds: the reference speed.  It is
#: about the fastest the slice ran on a 2-vCPU x86-64 virtual machine
#: (Intel Xeon, 2.0 GHz), so figures at the reference speed read about
#: as that machine's plain timings in a quiet hour.
REF_SLICE_S = 0.0025

#: Length of the stretch of work between two slices, in seconds.
STRETCH_S = 0.02

#: A stretch is scaled by the median of this many slices on either side.
WINDOW = 3

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5 + (6 if i == j else 0))
            for j in range(5)] for i in range(5)]


def _inverse(m: list) -> list:
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _orbit(n: int) -> int:
    seen = set()
    frontier = [(1, 0, 0)]
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        a, b, c = v
        for w in ((b, c, a), ((a + b) % n, b, c), (a, (b + 2 * c) % n, c)):
            if w not in seen:
                frontier.append(w)
    return len(seen)


def cpu() -> float:
    """User + system CPU of this process and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def reference_slice() -> tuple[float, float]:
    """Wall and CPU seconds of one slice.  The collector is off during
    the slice, so that a collection of the program's heap is not timed
    as part of it; the slice frees all it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), cpu()
        _inverse(_MATRIX)
        _orbit(11)
        return time.perf_counter() - t0, cpu() - c0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, around: list[float]) -> float:
    """``seconds`` measured while slices took ``around``, at the
    reference speed."""
    return seconds * REF_SLICE_S / statistics.median(around)


class Meter:
    """Times the work in stretches of about ``STRETCH_S`` separated by
    reference slices.  A one-shot interval timer ends each stretch: its
    signal handler runs between two bytecodes of the work, wherever the
    work is, takes one slice and re-arms the timer, so the host's speed
    is sampled evenly even within one long call.  Stretch j lies between
    slices j + lead and j + lead + 1, where the first ``lead`` + 1
    slices are taken before the work starts."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self.stretches: list[tuple[float, float]] = []
        self._lead = WINDOW - 1

    def _begin(self) -> None:
        self._t0, self._c0 = time.perf_counter(), cpu()

    def _close(self) -> None:
        self.stretches.append((time.perf_counter() - self._t0,
                               cpu() - self._c0))
        self.slices.append(reference_slice())

    def _on_timer(self, signum, frame) -> None:
        if not self._running:
            return
        self._close()
        self._begin()
        signal.setitimer(signal.ITIMER_REAL, STRETCH_S)

    def start(self) -> None:
        self.slices += [reference_slice() for _ in range(WINDOW)]
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._begin()
        signal.setitimer(signal.ITIMER_REAL, STRETCH_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()
        self.slices += [reference_slice() for _ in range(WINDOW - 1)]

    def raw(self) -> tuple[float, float]:
        """Wall and CPU seconds of the work, slices left out."""
        return (sum(w for w, _ in self.stretches),
                sum(c for _, c in self.stretches))

    def at_reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of the work at the reference speed."""
        wall = cpu_s = 0.0
        for j, (w, c) in enumerate(self.stretches):
            k = j + self._lead
            near = self.slices[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
            wall += scale(w, [s for s, _ in near])
            cpu_s += scale(c, [s for _, s in near])
        return wall, cpu_s
