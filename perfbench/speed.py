"""Scaling measured times to a fixed reference speed of the machine.

On a shared host the CPU's speed changes by itself: other tenants slow it
down by up to 1.8x, flipping between fast and slow within milliseconds, and
every op slows down with it.  A run that meets more slow time than another
reads slower though the code is the same.  So the benchmark times a fixed
pure-Python loop of its own (``calibrate``, no bcres code in it) whenever
the caller marks (run.py marks after every op) and every CLOCK_EVERY_S of
CPU time, also in the middle of an op, and scales the time between two
calibrations by ``REF_S / (their mean)``: a scaled time is the time the
stretch would have taken on the machine at its reference speed.  Where the
calibration reads ``REF_S`` the scaled time is the measured one.  The
calibrations' own time is left out.

Code changes move only the measured times, never the calibration, so a
regression in bcres shows in scaled times as it does in raw ones.  The raw
times are printed too (the run's info line).
"""

import signal
import time
from fractions import Fraction

# Calibration seconds at the reference speed: a round figure a little above
# the loop's time in the fast state (about 0.42 ms) of the 2-core shared
# machine the bounds were set on (Python 3.11).
REF_S = 0.0005
REPEATS = 3
CLOCK_EVERY_S = 0.05
P = 32003


def _work():
    """Fixed work in the mix bcres spends its time on: modular elimination,
    sets of frozensets, dictionaries, and exact fractions."""
    n = 16
    rows = [[(i * 31 + j * 17 + i * j) % P for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], P - 2, P)
        for r in range(rank + 1, n):
            f = rows[r][c] * inv % P
            if f:
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    faces = {}
    for i in range(600):
        face = frozenset((i % 7, i % 11, i % 13))
        faces[face] = faces.get(face, 0) + len(face)
    total = sum(Fraction(i, i + 1) for i in range(1, 50))
    return rank, len(faces), total


def calibrate():
    """Seconds of the fastest of REPEATS runs of the fixed loop."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Span:
    """A measured stretch: ``raw`` and ``scaled`` seconds, final once the
    clock has calibrated after ``end``."""

    __slots__ = ("start", "end", "raw", "scaled")

    def __init__(self):
        self.start = time.perf_counter()
        self.end = None
        self.raw = self.scaled = 0.0


class Clock:
    """Calibrates every CLOCK_EVERY_S of CPU time (SIGPROF) while running.

    ``span()`` opens a Span and ``close(span)`` ends it; ``mark()``
    calibrates at once and settles every span up to now.  Read a span after
    a ``mark()`` that follows its ``close``.
    """

    def __init__(self):
        calibrate()  # warm the interpreter's specialisation of the loop
        self.calibrations = [calibrate()]
        self._last_t = time.perf_counter()
        self._open = []
        self.busy = False  # a signal handler that raises must wait while set

    def __enter__(self):
        signal.signal(signal.SIGPROF, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_PROF, CLOCK_EVERY_S, CLOCK_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def span(self):
        s = Span()
        self._open.append(s)
        return s

    def close(self, span):
        span.end = time.perf_counter()

    def mark(self):
        if self.busy:
            return
        self.busy = True
        try:
            now = time.perf_counter()
            c = calibrate()
            f = REF_S / ((self.calibrations[-1] + c) / 2)
            still_open = []
            for s in self._open:
                piece = (now if s.end is None else s.end) - max(s.start, self._last_t)
                if piece > 0:
                    s.raw += piece
                    s.scaled += piece * f
                if s.end is None:
                    still_open.append(s)
            # in place: the interrupted code may be appending to this list
            self._open[:] = still_open
            self.calibrations.append(c)
            self._last_t = time.perf_counter()
        finally:
            self.busy = False
