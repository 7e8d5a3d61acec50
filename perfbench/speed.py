"""Machine speed, sampled all through a run, and times at reference speed.

On a few cores of a shared host the same code runs up to a third faster or
slower from one stretch of seconds to the next, in CPU time as much as in
wall time: the host slows the core, it does not take it away.  Medians
inside a run, or samples taken only before and after a long phase, cannot
remove that.  So a timer signal interrupts the benchmark's process every
`INTERVAL_S` and times a small fixed block of the benchmark's own code -- a
numpy scaled forward pass, a pure-Python loop and a small matrix product,
the kinds of work the program does -- on the same core, between the
program's bytecodes.  A timed stretch is then reported at reference speed:

    reported = sum over the stretch of dt * REFERENCE_BLOCK_S / block time

with, for each second of the stretch, the median block time of the samples
within half a second of it.  A
change to the program moves the stretch and not the block, so it moves the
reported time by the same factor.  The time spent in the samples (about 3%
of the run) is taken out of every timed stretch: `clock()` stands still
while a sample runs.  The block uses numpy and nothing of the fhmm package.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from checks import forward_log_likelihood

# About the block's median time when sampled during a run on the reference
# machine (2 shared cores of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6, OpenBLAS on one thread), so reported times read near wall times.
REFERENCE_BLOCK_S = 0.003
INTERVAL_S = 0.1
# samples this far either side of a stretch count for it, so that a stretch
# shorter than the interval still has some
PAD_S = 0.5


def _block_inputs():
    rng = np.random.default_rng(20191905)
    A = rng.random((10, 10)) + 0.1
    B = rng.random((10, 19)) + 0.1
    pi = rng.random(10) + 0.1
    A, B, pi = A / A.sum(1, keepdims=True), B / B.sum(1, keepdims=True), pi / pi.sum()
    sessions = [
        SimpleNamespace(symbols=rng.integers(0, 19, size=length))
        for length in (12, 25, 40, 60)
    ]
    M = rng.random((64, 64))
    return A, B, pi, sessions, M


_INPUTS = _block_inputs()


def block() -> float:
    """One pass of the fixed work; returns a value so none of it is skipped."""
    A, B, pi, sessions, M = _INPUTS
    total = forward_log_likelihood(A, B, pi, sessions)
    counts: dict[int, int] = {}
    for i in range(6_000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
    P = M
    for _ in range(8):
        P = M @ (P / P.max())
    return total + len(counts) + float(P[0, 0])


class Speed:
    """Speed samples of this process, taken on a timer while it runs."""

    def __init__(self) -> None:
        for _ in range(3):
            block()                          # warm caches before sampling
        self.times: list[float] = []         # clock() at each sample
        self.blocks: list[float] = []        # block time of each sample
        self.spent = 0.0                     # wall time spent in samples
        self._sampling = False

    def clock(self) -> float:
        """Wall time without the time spent in samples."""
        return time.perf_counter() - self.spent

    def sample(self, *_) -> None:
        if self._sampling:                   # a tick that came during a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        block()
        t1 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.blocks.append(t1 - t0)
        self.spent += t1 - t0
        self._sampling = False

    def __enter__(self) -> "Speed":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No samples here while a child process works: the two cores may
        share a physical core, and a sample in this process then slows the
        child's calls that overlap it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            if signal.getsignal(signal.SIGALRM) == self.sample:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_BLOCK_S over the median block time of the samples
        within PAD_S of the clock() interval [start, end]; the median, since
        a single block of a few milliseconds is often held up."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if hi <= lo:
            self.sample()
            lo, hi = len(self.blocks) - 1, len(self.blocks)
        return REFERENCE_BLOCK_S / statistics.median(self.blocks[lo:hi])

    def at_reference(self, start: float, end: float) -> float:
        """The clock() interval [start, end] at reference speed, integrated
        over the samples in it, one second at a time."""
        edges = np.append(np.arange(start, end, 1.0), end)
        return sum(
            (b - a) * self.factor(a, b) for a, b in zip(edges[:-1], edges[1:])
        )

    def timed(self, fn, repeats: int = 1):
        """Call `fn` `repeats` times; its last output and the median call
        time at reference speed."""
        spans = []
        for _ in range(repeats):
            start = self.clock()
            out = fn()
            spans.append((start, self.clock()))
        self.sample()          # so the last call has samples after it
        return out, statistics.median(self.at_reference(*s) for s in spans)
