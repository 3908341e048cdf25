"""Machine speed, sampled while the timed work runs.

On a shared machine the same op runs up to 1.7x slower for stretches from a
fraction of a second to minutes, whatever the program does: the two cores
switch between a fast and a slow state. Timing alone then measures the
neighbours more than the program.

A ``Sampler`` interrupts the process every ``INTERVAL_S`` seconds of its CPU
time (SIGPROF) and times a fixed probe, a bitmask breadth-first search in
pure Python that shares no code with the program. ``scaled`` turns a span's
wall time into the time it would have taken at reference speed: it takes
off the time spent in probes inside the span and multiplies the rest by the
mean of ``REFERENCE_S / probe time`` over the probes during the span (or,
for a span too short to hold ``NEAREST`` probes, the ``NEAREST`` probes
closest to it). Probes fall at even steps of CPU time, so the mean weighs
the fast and slow stretches of a long span by their length. A change to the program moves scaled times as it moves raw ones; a
change in the machine's speed moves raw times only.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.01
NEAREST = 5
PROBE_REPS = 2
# about the probe's time on the reference machine (2-core x86-64 VM, CPython
# 3.11), between its fast (0.17 ms) and slow (0.27 ms) states; scaled times
# read as seconds at the speed where the probe takes this long
REFERENCE_S = 0.0002

_rng = random.Random(7)
_N = 40
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.15:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _bfs() -> None:
    for s in range(0, _N, 4):
        seen = frontier = 1 << s
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= _ADJ[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~seen
            seen |= frontier


class Sampler:
    """Probe times taken during a run; use as a context manager."""

    def __init__(self):
        self.at: list[float] = []    # perf_counter at the end of each probe
        self.took: list[float] = []  # seconds each probe took

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            _bfs()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the span [start, end] would take at reference speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        own = sum(self.took[lo:hi])
        picked = self.took[lo:hi]
        left, right = lo - 1, hi
        while len(picked) < NEAREST and (left >= 0 or right < len(self.at)):
            if right >= len(self.at) or (left >= 0 and start - self.at[left] <= self.at[right] - end):
                picked.append(self.took[left])
                left -= 1
            else:
                picked.append(self.took[right])
                right += 1
        if not picked:
            return end - start
        return (end - start - own) * statistics.fmean(REFERENCE_S / t for t in picked)

    def mean_speed(self) -> float:
        """REFERENCE_S over the median probe: above 1 when the machine ran
        faster than the reference."""
        return REFERENCE_S / statistics.median(self.took) if self.took else 1.0
