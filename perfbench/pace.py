"""Machine speed, measured by a fixed computation beside the timed work.

Other tenants of a shared machine change how fast this process runs: on
a 2-core x86-64 virtual machine the same work took from 1x to 2x as long
from one half-minute to the next, so raw durations of identical runs
spread by 30% and more.  The benchmark therefore times a fixed reference computation (a
Dijkstra run over a 16x16 grid, in the benchmark's own code) after every
operation and during every set-up, and scales each duration by
``REF_NS / c``, where ``c`` is the median reference time next to it.  Times
reported this way read as if the reference computation took ``REF_NS``;
the raw figures are printed beside them.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import thread_time_ns

REF_NS = 250_000
SIDE = 16
# reference samples on each side of an operation used to scale it
HALF_WINDOW = 4
# CPU seconds between reference samples taken while a set-up runs
TICK_S = 0.1


class Pace:
    def __init__(self):
        rng = random.Random(0)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(SIDE * SIDE)]
        for v in range(SIDE * SIDE):
            right = [v + 1] if (v + 1) % SIDE else []
            down = [v + SIDE] if v + SIDE < SIDE * SIDE else []
            for u in right + down:
                adj[v].append((u, rng.randint(1, 16)))
                adj[u].append((v, rng.randint(1, 16)))
        self._adj = adj
        self.samples: list[int] = []

    def _dijkstra(self) -> None:
        adj = self._adj
        dist = [1 << 60] * len(adj)
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for y, w in adj[x]:
                nd = d + w
                if nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))

    def sample(self) -> int:
        """Time one reference run; returns the index of the new sample."""
        t0 = thread_time_ns()
        self._dijkstra()
        self.samples.append(thread_time_ns() - t0)
        return len(self.samples) - 1

    def around(self, fn, *args):
        """Run ``fn(*args)`` between two short reference batches, with a
        reference sample every TICK_S of CPU time while it runs.

        Returns (result, CPU seconds less the samples' own time, scale
        factor for them)."""
        first = len(self.samples)
        for _ in range(2 * HALF_WINDOW + 1):
            self.sample()
        before = len(self.samples)
        old = signal.signal(signal.SIGVTALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        try:
            t0 = thread_time_ns()
            out = fn(*args)
            dt = thread_time_ns() - t0
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, old)
        dt -= sum(self.samples[before:])
        for _ in range(2 * HALF_WINDOW + 1):
            self.sample()
        return out, dt / 1e9, REF_NS / statistics.median(self.samples[first:])

    def factor_at(self, i: int) -> float:
        """Scale factor for a duration measured just before sample ``i``."""
        window = self.samples[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        return REF_NS / statistics.median(window)

    def median_factor(self, start: int = 0) -> float:
        return REF_NS / statistics.median(self.samples[start:])
