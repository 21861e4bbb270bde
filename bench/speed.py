"""Speed-normalised timing: cancel the host's drift out of a pass's times.

The machine this benchmark runs on is a few vCPUs of a shared host, whose
speed for the same pure-Python code switches between about 0.85 and 1.5 of
its median every 0.5-5 s (other tenants on the same cores and caches).  Raw
pass times of the same code therefore spread by 15-35 % across runs, more
than any useful regression bound.

A ``SIGALRM`` every ``PERIOD_S`` of wall time runs
``reference_chunk``, a fixed piece of dict/set/tuple/integer work of the
same kind as the program's, and records when it started and how long it
took.  A sample's duration is the host's speed at that moment.  The time
between two samples is program time, and ``normalised`` scales each such
gap by ``NOMINAL_S`` over the local speed (the median of the nearby
samples), so a stretch that ran at half speed counts half its wall time.
The result is in seconds at the nominal speed: the time the program would
have taken on a host that runs the reference chunk in ``NOMINAL_S``.  The
samples' own time is left out; they cost a pass about 2 %.

Only ``bench/`` code runs in the handler; the program is not touched.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
# samples on each side whose median is the local speed of a gap
WINDOW = 3
# reference_chunk's duration at the host's fast speed, Intel Xeon vCPU,
# Python 3.11 (the median over a quiet stretch)
NOMINAL_S = 0.00035


def reference_chunk() -> int:
    """Fixed pure-Python work, about 0.35 ms: small dicts, sets and sorts."""
    acc = 0
    for _ in range(40):
        d = {}
        for a in range(30):
            t = (a, a * 7 % 13)
            d[t] = d.get(t, 0) + a
        s = set()
        for k, v in d.items():
            s.add(k[1] * v % 101)
        acc += len(s) + sum(sorted(s)[:5])
    return acc


class Sampler:
    """Runs ``reference_chunk`` on a wall-clock timer, in the main thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_chunk()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def samples(self) -> tuple[list[float], list[float], list[float]]:
        """Starts, durations and local speeds: the first three arguments of
        ``normalised``."""
        d = self.durations
        speeds = [statistics.median(d[max(0, i - WINDOW):i + WINDOW + 1])
                  for i in range(len(d))]
        return self.starts, d, speeds


def measure(fn):
    """Call ``fn()`` under a sampler; return its result and normalised time."""
    sampler = Sampler()
    sampler.start()
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        t1 = perf_counter()
        sampler.stop()
    return result, normalised(*sampler.samples(), t0, t1)


def normalised(starts: list[float], durations: list[float],
               speeds: list[float], a: float, b: float) -> float:
    """Program time in [a, b], in seconds at the nominal speed.

    Sample k ran over [starts[k], starts[k] + durations[k]]; gap k is the
    time between sample k-1 and sample k, and runs at the mean of their
    local speeds.  [a, b] must lie after the first sample and before the
    last, as a command does between ``Sampler.start`` and ``stop``.
    """
    if not starts or a < starts[0] or b > starts[-1]:
        raise ValueError("interval is not inside the sampled stretch")
    total = 0.0
    k = bisect.bisect_right(starts, a)  # first sample starting after a
    while True:
        lo = max(a, starts[k - 1] + durations[k - 1])
        hi = min(b, starts[k])
        if hi > lo:
            total += (hi - lo) * 2 * NOMINAL_S / (speeds[k - 1] + speeds[k])
        if starts[k] >= b:
            return total
        k += 1
