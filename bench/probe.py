"""Calibration probe and drift-cancelling clock.

The machine's speed drifts over periods of a fraction of a second to
several seconds, but the ratio of an op's time to a fixed pure-Python probe
run at the same moment does not. So the clock runs the probe every
PROBE_EVERY_S seconds, also in the middle of an op (from a SIGALRM handler,
which Python runs between bytecodes of the op), and scales every stretch of
op time between two probes by ref / (mean of those two probes). Times come
out in reference seconds: what the op would take on a machine where the
probe takes PROBE_REF_S. Probe time inside an op is not charged to the op.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# Median probe time on the machine the benchmark was calibrated on
# (2-core VM, Python 3.11.7); it only fixes the unit of the reported times.
PROBE_REF_S = 0.0028
# Median time, on the same machine, from spawning a bare `python -c` until
# it prints: the unit of set-up times, which the probe does not track.
SPAWN_REF_S = 0.055
# Short probes often track the drift better than long ones seldom: on that
# machine, per-op spread of a 20 ms op fell from 15% (15 ms probe every
# 0.25 s) to 7-9% (3 ms every 0.05 s), at the same 6% probe share.
PROBE_EVERY_S = 0.05
PROBE_REPS = 30

_A = [3 ** 120 + 7 * k for k in range(48)]
_B = [5 ** 100 - 11 * k for k in range(48)]
_F = [Fraction(k, 2 * k + 1) for k in range(1, 40)]


def _work(reps: int) -> int:
    """Big-int dot products and Fraction sums: the two kinds of arithmetic
    the exact layer spends its time in."""
    acc = 0
    for _ in range(reps):
        acc += sum(x * y for x, y in zip(_A, _B))
        s = Fraction(0)
        for f in _F:
            s += f
        acc += s.numerator
    return acc


PROBE_CHECK = _work(PROBE_REPS)


def probe() -> float:
    """Seconds for one fixed probe (about 3 ms), with cyclic GC off so that
    garbage the program left behind is never collected on the probe's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = _work(PROBE_REPS)
        dt = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if got != PROBE_CHECK:
        raise RuntimeError("calibration probe computed a wrong result")
    return dt


class Clock:
    """Probes on a timer and turns raw op intervals into reference seconds.

    Run the ops inside `with clock.running():`, timing each with
    `clock.op(fn)`; after the block, `normalise` and `raw` turn each op's
    interval into reference and raw seconds.
    """

    def __init__(self):
        self.starts: list[float] = []   # probe start times, ascending
        self.ends: list[float] = []
        self.probes: list[float] = []   # probe durations
        self.listeners = []             # called as f(start, end) after a probe
        self._busy = False
        self.probe_now()

    def probe_now(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            dt = probe()
            self.starts.append(t0)
            self.probes.append(dt)
            self.ends.append(time.perf_counter())
            for f in self.listeners:
                f(t0, self.ends[-1])
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Probe now, then every PROBE_EVERY_S seconds until the block ends,
        and once more on the way out."""
        self.probe_now()
        signal.signal(signal.SIGALRM, self.probe_now)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.probe_now()

    def op(self, fn):
        """Run fn(); returns (result, interval) for normalise()."""
        t0 = time.perf_counter()
        result = fn()
        return result, (t0, time.perf_counter())

    def raw(self, interval) -> float:
        """Seconds of the interval not spent in probes."""
        t0, t1 = interval
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def normalise(self, interval) -> float:
        """Reference seconds of the interval: each stretch between probes is
        scaled by the mean of the probes on either side of it."""
        t0, t1 = interval
        i = bisect.bisect_left(self.starts, t0)   # first probe inside or after
        j = bisect.bisect_left(self.starts, t1)   # first probe after
        if i == 0 or j >= len(self.starts):
            raise RuntimeError("op interval is not bracketed by probes")
        total, start = 0.0, t0
        for k in range(i, j + 1):
            end = t1 if k == j else self.starts[k]
            total += (end - start) * 2 / (self.probes[k - 1] + self.probes[k])
            start = self.ends[k]
        return total * PROBE_REF_S

    @property
    def probe_wall(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    @property
    def probe_median(self) -> float:
        return statistics.median(self.probes)
