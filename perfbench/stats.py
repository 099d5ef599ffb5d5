"""Summary statistics and the host-speed calibration loop and sampler."""

import signal
import statistics
import time
from typing import List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """(value, percentile) at the highest ladder percentile that leaves at
    least ten samples above it; the maximum (percentile None) when even
    the median leaves fewer than ten, and 0.0 for no samples."""
    if not values:
        return 0.0, None
    n = len(values)
    chosen = None
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            chosen = pct
    if chosen is None:
        return max(values), None
    return percentile(values, chosen), chosen


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Iterations of one calibration loop, and of one slice of it.
LOOP_ITERATIONS = 60_000
SLICE_ITERATIONS = 6_000

#: Seconds per calibration loop on the reference host, as the sampler
#: reads it; ``run.py`` scales every end-to-end host time to it.  A
#: 2-vCPU shared cloud VM reads 0.030-0.045 s, depending on its
#: neighbours' load.
REFERENCE_CALIB_S = 0.035


def _calibration_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """Fixed pure-Python work: integer mixing, dict and list traffic."""
    acc = 0x9E3779B9
    table = {}
    seq = []
    for i in range(iterations):
        acc = (acc * 1_103_515_245 + 12_345 + i) & 0xFFFFFFFF
        table[acc & 4095] = i
        seq.append(acc >> 20)
        if len(seq) > 256:
            seq.sort()
            del seq[:128]
    return acc ^ len(table) ^ sum(seq)


class SpeedSampler:
    """Host speed sampled while the program runs, in the same process.

    Every ``period_s`` of wall time a SIGALRM handler times one slice of
    the calibration loop.  The vCPUs of a shared host slow down and
    speed up independently, in phases from a second to a minute long,
    so a reading taken before or after a run misses the phases the run
    went through; slices taken during it do not.  :meth:`window` gives
    the seconds the slices took inside an interval, which the caller
    subtracts from the interval's wall time, and their speed as seconds
    per full loop.
    """

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        #: (monotonic start, seconds) of every slice.
        self.slices: List[Tuple[float, float]] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.monotonic()
        t0 = time.perf_counter()
        _calibration_loop(SLICE_ITERATIONS)
        self.slices.append((start, time.perf_counter() - t0))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """(slice seconds inside [start, end), seconds per loop there).

        ``start`` and ``end`` are ``time.monotonic()`` readings.  A window
        no slice fell into takes the speed of all the slices.
        """
        inside = [d for t, d in self.slices if start <= t < end]
        speed_from = inside or [d for _t, d in self.slices]
        per_loop = sum(speed_from) / len(speed_from) * LOOP_ITERATIONS / SLICE_ITERATIONS
        return sum(inside), per_loop
