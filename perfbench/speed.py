"""Host-speed probe: a fixed reference computation interleaved with the work.

The benchmark runs on a host that shares its cores, and the host's speed
drifts by up to 1.6x in phases that last from seconds to minutes. Wall
times of the same code then differ more between runs than any regression
bound could allow. So a timer interrupts the closed loop every INTERVAL_S
seconds and runs one reference block: a fixed mix of interpreted Python
and small numpy operations that calls nothing in airmule. The time spent
in blocks is kept off the work clock that plans are timed with.

Each plan's time is then converted to reference seconds: it is scaled by
the mean of REF_BLOCK_S over each block's time, for the blocks sampled
during the plan and up to WINDOW_S on either side of it. A mean of these
per-block factors follows a host whose speed changes during a long plan;
the factor of one median block would follow only its longest phase. A change to airmule moves plan times
and leaves the blocks alone, so it shows in full; a slower host phase
slows both, and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.15
MIN_BLOCKS = 5  # blocks averaged at least, taken nearest in time
# Mean time of one reference block on the 2-core Xeon VM on which the
# benchmark was written. Only the scale of the reported times depends on it.
REF_BLOCK_S = 0.0019

_VEC = np.arange(4000, dtype=float)


def reference_block() -> None:
    """The fixed unit of work that the host's speed is measured with."""
    acc = 0.0
    table = {}
    for i in range(6000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    a = _VEC
    for _ in range(30):
        b = np.sqrt(a * 1.0001 + 3.0)
        a = np.minimum(a, b + a)


def time_blocks(count: int) -> list[float]:
    """Seconds taken by each of count reference blocks run now."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_block()
        times.append(time.perf_counter() - t0)
    return times


def scale(blocks: list[float]) -> float:
    """Factor from wall seconds to reference seconds, given block times."""
    return statistics.fmean([REF_BLOCK_S / b for b in blocks])


class SpeedProbe:
    """Samples reference blocks on a timer while ``running``."""

    def __init__(self) -> None:
        self.stolen = 0.0  # wall seconds spent in blocks so far
        self.samples: list[tuple[float, float]] = []  # (work clock, block s)

    def work_clock(self) -> float:
        """perf_counter seconds, less the time spent in reference blocks."""
        return time.perf_counter() - self.stolen

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_block()
        dt = time.perf_counter() - t0
        self.samples.append((t0 - self.stolen, dt))
        self.stolen += dt

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.sample()

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        for _ in range(MIN_BLOCKS):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per work-clock second over [start, end]."""
        ranked = sorted((max(start - t, t - end, 0.0), dt)
                        for t, dt in self.samples)
        blocks = [dt for dist, dt in ranked if dist <= WINDOW_S]
        if len(blocks) < MIN_BLOCKS:
            blocks = [dt for _, dt in ranked[:MIN_BLOCKS]]
        return scale(blocks)

    def host_speed(self) -> float:
        """Mean factor over the whole run; 1 is the host REF_BLOCK_S was set on."""
        return scale([dt for _, dt in self.samples])
