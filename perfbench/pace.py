"""The host's speed, sampled while ops and set-ups run, to scale their times.

The benchmark's host may share its cores with other work: the same op can
take half as long again a minute later, or on the next run.  Such a change
moves a fixed piece of pure-Python work, the ``kernel``, much as it moves
the program.  So while an op is timed, a timer signal runs the kernel
every ``INTERVAL_S`` seconds of op time and records how long it took; the
op's own time leaves those pauses out.  The op's time is then multiplied
by ``REFERENCE_S`` over the median kernel time of the samples taken within
``WINDOW_S`` of it.  A scaled time reads as seconds on a host that runs
the kernel in ``REFERENCE_S``.  The kernel calls none of the program, so a
change to the program moves a scaled time as much as the raw one.

The signal is handled in the benchmark's one thread, between two
bytecodes of whatever runs there; no other thread or process is involved.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# A fixed queue of rows over 0/1 variables, swept the way a bounds
# propagator sweeps its rows: the same kind of work as the program's, but
# none of its code.
KERNEL_ROWS = [[((r * 7 + j * 13) % 512, 1 if (r + j) % 3 else -1)
                for j in range(8)] for r in range(256)]
KERNEL_PASSES = 8
# The kernel's time on a 2-core Xeon at the benchmark's first commit, at
# the host's usual speed.
REFERENCE_S = 0.0012
# Op time between two samples: sampling adds about 2% to a run.
INTERVAL_S = 0.1
# Set-up time between two samples: a set-up takes 0.1 to 0.5 s.
SETUP_INTERVAL_S = 0.01
# Samples up to this long before an op starts or after it ends count for it.
WINDOW_S = 1.0


class _Sweep:
    def __init__(self):
        self.val = [-1] * 512
        self.trail = []

    def fix(self, var: int, value: int) -> None:
        self.val[var] = value
        self.trail.append(var)

    def sweep(self, p: int) -> None:
        val = self.val
        queue = list(range(len(KERNEL_ROWS)))
        while queue:
            ri = queue.pop()
            slack = (ri * 31 + p) % 5 - 1
            for v, a in KERNEL_ROWS[ri]:
                if val[v] < 0:
                    if a > 0:
                        if a > slack:
                            self.fix(v, 1)
                    elif -a > slack:
                        self.fix(v, 0)
        while self.trail:
            val[self.trail.pop()] = -1


def kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    One untimed pass first brings the kernel's data into the cache, so that
    the timed passes measure the host's speed, not what the program left
    in the cache; the collector is off, so that none of its work lands here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = _Sweep()
        state.sweep(0)
        start = perf_counter()
        for p in range(KERNEL_PASSES):
            state.sweep(p)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Speed samples taken while the timer runs, and times net of them.

    ``samples`` rows are (start, kernel seconds).  ``paused`` is the total
    time spent taking samples, so the time of a stretch of work is its
    wall time minus the growth of ``paused`` over it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self._left = interval
        # Installed once and never removed: a signal that is already due when
        # the timer stops still finds a handler, not the default that would
        # end the process.
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.samples.append((start, kernel()))
        self.paused += perf_counter() - start

    def start(self) -> None:
        """Sample every ``interval`` seconds of time spent between a
        ``start`` and its ``stop``."""
        signal.setitimer(signal.ITIMER_REAL, self._left, self.interval)

    def stop(self) -> None:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._left = left or self.interval

    @contextmanager
    def timing(self):
        self.start()
        try:
            yield
        finally:
            self.stop()

    def factor(self, start: float, end: float,
               window: float = WINDOW_S) -> float:
        """REFERENCE_S over the median kernel time near [start, end].

        Without a sample in the window, the nearest sample counts; without
        any sample, one taken now.
        """
        if not self.samples:
            self._sample()
        near = [k for t, k in self.samples
                if start - window <= t <= end + window]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                        abs(s[0] - end)))[1]]
        return REFERENCE_S / statistics.median(near)
