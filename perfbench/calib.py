"""Machine-speed calibration for the timed metrics.

The machines this benchmark runs on share cores with other tenants: on the
reference machine a fixed piece of pure-Python work varied by up to 40%
within minutes, in wall and CPU time alike.  The harness therefore runs a
short fixed calibration unit (fraction-free elimination of four 9 x 9
integer matrices plus some tuple and dict churn, no dfw code) between ops,
every CALIBRATE_EVERY_S of timed work, and scales each op time by
REF_UNIT_S / (median unit time around the op).  The reported times are
"seconds at reference speed": the time the op would take on the reference
machine when one unit takes REF_UNIT_S.  The time spent calibrating is
kept out of every timed wall.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REF_UNIT_S = 0.00053  # median unit time on the reference machine (2 cores, Python 3.11.7)
CALIBRATE_EVERY_S = 0.02
NEIGHBOURS = 15  # samples whose median gives the speed at one instant

_rng = random.Random(5)
_MATRICES = [[[_rng.randint(-6, 6) for _ in range(9)] for _ in range(9)] for _ in range(4)]


def unit() -> int:
    out = 0
    for m in _MATRICES:
        a = [list(r) for r in m]
        n = len(a)
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        break
                else:
                    continue
            akk = a[k][k]
            ak = a[k]
            for i in range(k + 1, n):
                ai = a[i]
                aik = ai[k]
                ai[k + 1:] = [(ai[j] * akk - aik * ak[j]) // prev for j in range(k + 1, n)]
                ai[k] = 0
            prev = akk
        out += a[n - 1][n - 1]
    churn = {}
    for i in range(300):
        churn[(i, i % 7)] = tuple(range(i % 5))
    return out + len(churn)


class Calibration:
    def __init__(self):
        self.at: list = []  # sample midpoints, perf_counter seconds
        self.unit_s: list = []
        self.spent = 0.0  # seconds spent calibrating
        self._last = float("-inf")

    def sample(self, units: int = 2) -> None:
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.unit_s.append((t1 - t0) / units)
        self.spent += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REF_UNIT_S over the median unit time of the samples nearest to
        `at`; multiply a raw time measured at `at` by it."""
        i = bisect.bisect_left(self.at, at)
        lo = max(0, i - NEIGHBOURS // 2)
        near = self.unit_s[lo:lo + NEIGHBOURS]
        return REF_UNIT_S / statistics.median(near)
