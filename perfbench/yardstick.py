"""The yardstick: fixed work that op times are stated in units of.

``run.py`` times the yardstick right before every set-up and every op,
outside their timing, and reports mean op time divided by mean yardstick
time (unit ``ref``), and set-up time scaled by it.  The shared host the
benchmark runs on switches between a fast and a slow speed (about 1.5 times
apart) every few seconds, and the share of time it spends slow changes from
minute to minute, so op seconds spread from run to run by a quarter.  The
yardstick slows down with the host and not with coversketch, so the ratio
moves with the program and much less with the host.
"""

from __future__ import annotations

import time

import numpy as np

# About one yardstick run when the host is fast, on the machine in
# WORKLOADS.md.  ``setup_s`` is stated in seconds on a host where the
# yardstick takes this long, because BENCHMARK.json gives it the unit s.
REFERENCE_S = 0.020
# Yardstick time before an op or set-up, as a share of the previous one's
# time, so that a run with few long ops still times the yardstick often.
SHARE = 0.04


class Yardstick:
    """A fixed piece of work, independent of coversketch.

    It mixes what the library spends its time on: numpy sorting and
    counting, a Python dict loop, and writing and parsing an edge list as
    text.  It takes 17-27 ms on the machine in ``WORKLOADS.md``.  Its
    inputs are fixed, not drawn from ``--seed``."""

    def __init__(self):
        rng = np.random.default_rng(20161208)
        self.a = rng.integers(0, 2_100, 40_000)
        self.b = rng.integers(0, 20_000, 40_000)
        self.a_list = self.a[:6_000].tolist()
        self.b_list = self.b[:6_000].tolist()
        self._work()

    def _work(self) -> int:
        order = np.lexsort((self.b, self.a))
        _, counts = np.unique(self.a[order], return_counts=True)
        total = int(np.bincount(self.b, minlength=20_000).cumsum()[-1])
        acc: dict[int, int] = {}
        for i in range(5_000):
            acc[i & 1023] = acc.get(i & 1023, 0) + i
        text = "\n".join(f"{s} {e}" for s, e in zip(self.a_list, self.b_list))
        rows = [[int(x) for x in line.split()] for line in text.splitlines()]
        return total + int(counts.max()) + len(acc) + len(rows)

    def sample(self, last_s: float) -> list[float]:
        """Timings in seconds, repeated until they add up to ``SHARE`` of
        ``last_s``, the previous op's or set-up's time; at least one."""
        times: list[float] = []
        while not times or sum(times) < SHARE * last_s:
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return times
