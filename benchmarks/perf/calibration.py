"""Host-speed calibration for the benchmark's host-time metrics.

The shared hosts this benchmark runs on change speed by tens of percent
within seconds (other tenants on the same cores; CPU time moves with wall
time, so it is not preemption).  A fixed probe -- a heap calendar driving
generator processes, the simulator's own hot-path shape, built from the
standard library only -- is timed every :data:`PERIOD_S` of a repetition
from a ``SIGALRM`` handler, so it samples the same stretch of host time
the workload runs in.  Host times are then reported at the speed the
probe measured on the baseline host (:data:`REFERENCE_S`).  No repository
code runs in the probe, so a faster simulator still reads faster.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from contextlib import contextmanager

#: Probe interval and length: about 2% of the host time goes to the probe.
PERIOD_S = 0.05
PROBE_STEPS = 2000
#: Samples taken after each repetition, so even a short one has some.
TAIL_SAMPLES = 5
#: Median probe time on the baseline host (2-vCPU Xeon at 2.0 GHz,
#: CPython 3); a fixed scale that keeps calibrated times in seconds.
REFERENCE_S = 0.00115


def probe_s(steps: int = PROBE_STEPS) -> float:
    """Host seconds of ``steps`` events of a fixed pure-Python event loop."""

    def process(i):
        x = i
        while True:
            x = (x * 1103515245 + 12345) & 0xFFFF
            yield (x & 7) + 1.0

    heap = [(0.0, i, process(i)) for i in range(16)]
    seq = len(heap)
    t0 = time.perf_counter()
    for _ in range(steps):
        t, _seq, gen = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (t + next(gen), seq, gen))
    return time.perf_counter() - t0


class Calibration:
    """Probe samples of one repetition, and a clock that excludes them."""

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0

    def clock(self) -> float:
        """Host seconds not spent in the probe (``perf_counter`` based)."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_s())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self, during: bool = True):
        """Probe every :data:`PERIOD_S` while the block runs (unless
        ``during`` is false: a profiled block must not see the probe),
        then :data:`TAIL_SAMPLES` times after it."""
        if during:
            previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        for _ in range(TAIL_SAMPLES):
            self.sample()

    def factor(self) -> float:
        """Multiplier from this host's seconds to the baseline host's."""
        return REFERENCE_S / statistics.median(self.samples)
