"""The benchmark's tail percentile rule and its calibration probe.

Kept free of any ``repro`` import so the tests of the harness's own
arithmetic run without the package.
"""

from __future__ import annotations

import math
import os
import signal
import time
from typing import List, Sequence

#: The tail percentile rule: a percentile is reported only when at least
#: this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile, refused when its tail is too thin.

    The value returned is the smallest sample with at least ``pct``
    percent of the sample at or below it.  It is reported only when at
    least :data:`MIN_TAIL_SAMPLES` samples lie strictly beyond its rank;
    otherwise :class:`ValueError` is raised, because a percentile that
    rests on fewer samples is mostly noise.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(pct / 100.0 * n)  # 1-based
    beyond = n - rank
    if n == 0 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required"
        )
    return ordered[rank - 1]


#: Iterations of the calibration loop.
LOOP_ITERATIONS = 200_000

#: Seconds one calibration loop takes on the reference host (one idle
#: core of a 2.1 GHz Xeon, CPython 3.11).  Host timings are reported at
#: this host's speed: see :class:`HostClock`.
REFERENCE_PROBE_S = 0.025

#: Loops timed by each probe that brackets a timed stretch of work.
BRACKET_LOOPS = 3

#: Seconds between the short probes a ticking :class:`HostClock` takes
#: while the work runs, and the iterations of each (a few milliseconds).
TICK_S = 0.1
TICK_ITERATIONS = 20_000


def calibration_probe(repeats: int = 5, processes: int = 1) -> float:
    """Median seconds of a fixed pure-Python loop.

    The loop does the same interpreter work on every machine and touches
    nothing the program under test owns, so it reads slower exactly when
    the host runs this process slower: on another machine, or on a shared
    one while its neighbours are busy.  With ``processes`` above one the
    loop runs in that many processes at once (this one and forked
    children, each waited for) and the mean of their medians is returned:
    the speed of the cores that work spread over a process pool runs on.
    Not an end-to-end metric.
    """
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: time the loop, report, exit without cleanup
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, repr(_loop_median(repeats)).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    samples = [_loop_median(repeats)]
    for pid, read_fd in children:
        with os.fdopen(read_fd) as pipe:
            reported = pipe.read()
        os.waitpid(pid, 0)
        samples.append(float(reported))
    return sum(samples) / len(samples)


def _loop(iterations: int) -> float:
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


def _loop_median(repeats: int) -> float:
    return sorted(_loop(LOOP_ITERATIONS) for _ in range(repeats))[repeats // 2]


class HostClock:
    """Times a stretch of work, in seconds at the reference host's speed.

    A shared host runs this process at a speed that swings by half within
    seconds, and the calibration loop swings with it.  The clock takes a
    probe right before and right after the stretch and, with ``ticks``,
    a short one every :data:`TICK_S` while it runs (from a ``SIGALRM``
    handler in this process; the ticks' own time is left out of the
    stretch).  ``factor`` is the reference probe time over the probes'
    harmonic mean, so ``raw_s * factor`` keeps the program's own cost and
    sheds most of the host's.  Tick only work that runs in this process:
    while a process pool computes, a tick would time its competition with
    the pool, not the host.  ``processes`` is passed to the bracketing
    probes.  Without ``probing`` the clock takes no probe at all and
    ``factor`` stays 1: a plain stopwatch, for stretches that must run
    nothing but the work.
    """

    def __init__(self, ticks: bool = False, processes: int = 1, probing: bool = True) -> None:
        self.ticks = ticks and probing
        self.processes = processes
        self.probing = probing
        self.probes: List[float] = []
        self.ticked = 0.0
        self.raw_s = 0.0
        self.factor = 1.0
        self._start = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        if self.probing:
            self.probes = [calibration_probe(BRACKET_LOOPS, self.processes)]
        self.ticked = 0.0
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(_loop(TICK_ITERATIONS) * (LOOP_ITERATIONS / TICK_ITERATIONS))
        self.ticked += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = end - self._start - self.ticked
        if not self.probing:
            return
        self.probes.append(calibration_probe(BRACKET_LOOPS, self.processes))
        self.factor = REFERENCE_PROBE_S * sum(1.0 / p for p in self.probes) / len(self.probes)

    @property
    def seconds(self) -> float:
        """The stretch's host seconds (ticks left out) at the reference speed."""
        return self.raw_s * self.factor
