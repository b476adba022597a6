"""Timed calls, and the same calls rescaled to a fixed host speed.

The hosts this benchmark runs on share their cores, and their speed swings by
up to a factor of two within seconds and by half over an hour, so raw wall
times of the same work drift from run to run. While a ``Stopwatch`` is open,
a timer signal runs a fixed reference loop every ``TICK_S`` seconds and
records how long it took. Each timed call can then be rescaled by the mean
loop time during the call and in a short window around it:

    scaled = raw * REF_S / mean loop time

so a scaled time reads as the wall time on a host where the loop takes
``REF_S``. The loop does the kind of work the synthesis layers do (BFS over a
coupling graph, F2 elimination on wide ints, small frozen dataclasses) in code
of its own; it never calls the library, so a change to the library moves
scaled and raw times alike. The ticks' own time is left out of both.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

TICK_S = 0.01
WINDOW_TICKS = 5  # ticks on each side of a call that also count toward its speed
REF_S = 0.0002  # about the loop's time on an unloaded 2.1 GHz core; sets the scale only
SETTLE_S = 0.2  # the loop runs untimed this long after the timer starts

_ADJ = {
    v: tuple(w for w in (v - 5, v - 1, v + 1, v + 5) if 0 <= w < 25 and (w // 5 == v // 5 or abs(w - v) == 5))
    for v in range(25)
}
_ROWS = tuple((1 << 170) | (i * 2654435761) for i in range(25))


@dataclass(frozen=True, slots=True)
class _Pair:
    a: int
    b: int


def _reference_loop() -> int:
    active = frozenset(_ADJ)
    total = 0
    for source in range(0, 25, 3):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if w in active and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += len(dist)
    basis: list[int] = []
    for row in _ROWS:
        for b in basis:
            if row & (1 << (b.bit_length() - 1)):
                row ^= b
        if row:
            basis.append(row)
    pairs = [_Pair(i, 3 * i) for i in range(100)]
    return total + len(basis) + sum(p.b for p in pairs)


class Stopwatch:
    """Context manager that samples the host's speed and records timed calls."""

    def __init__(self):
        self._tick_at = array("d")
        self._tick_s = array("d")
        self._calls: list[tuple[object, float, float]] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self._tick_at.append(t0)
        self._tick_s.append(time.perf_counter() - t0)

    def __enter__(self) -> "Stopwatch":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        # untimed, so that the first timed call already has warm ticks on both sides
        settle = time.perf_counter() + SETTLE_S
        while time.perf_counter() < settle:
            _reference_loop()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, key, fn, *args):
        """Run ``fn(*args)``, record its interval under ``key`` and return its result."""
        t0 = time.perf_counter()
        result = fn(*args)
        self._calls.append((key, t0, time.perf_counter()))
        return result

    def median_tick_s(self) -> float:
        """Median time of the loop so far; REF_S over it is the host's relative speed."""
        return sorted(self._tick_s)[len(self._tick_s) // 2]

    def intervals(self) -> list[tuple[object, float, float]]:
        """(key, raw seconds, scaled seconds) of every call so far, in call order."""
        self._tick()
        ticks = sorted(zip(self._tick_at, self._tick_s))  # a tick can interrupt a manual one
        at = [t for t, _ in ticks]
        took = [d for _, d in ticks]
        out = []
        for key, t0, t1 in self._calls:
            lo, hi = bisect_left(at, t0), bisect_right(at, t1)
            raw = t1 - t0 - sum(took[lo:hi])
            around = took[max(0, lo - WINDOW_TICKS) : hi + WINDOW_TICKS]
            out.append((key, raw, raw * REF_S * len(around) / sum(around)))
        return out
