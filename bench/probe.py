"""A host-speed probe: a fixed kernel timed again and again while an
iteration runs, so that the iteration's times can be read at a fixed speed.

The machines this benchmark runs on are shared: the same work can take up
to twice as long in one minute as in the next, in spells of seconds to
minutes, and CPU time stretches with wall time (the cores are slower, not
busy elsewhere).  Medians within a run cannot remove a spell that covers
the whole run.  The probe times a small kernel of the kinds of work the
program does (vector NumPy on a cache-sized array, a pure-Python float
loop, 0-d NumPy scalar calls) every ``INTERVAL_S`` seconds of the measured
interval and once at each end of it.  Each sample is the kernel's thread
CPU time, so waiting for a core does not count.  The interval's host speed
is the kernel's nominal time over its mean sample, and a time multiplied by
that speed is the time the work would have taken on a host running at the
nominal speed.

The samples come from a ``SIGALRM`` handler, which Python runs in the main
thread between bytecodes, so a long call into C delays a sample; the two
samples at the ends are always taken.  Interval timers are not inherited by
forked pool workers.  The probe's own wall time is counted, so that callers
can take it out of the interval they time.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# The kernel's mean time on the reference machine (2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6).  Any fixed value would do: both sides of a
# comparison are multiplied by the same one.
NOMINAL_S = 1.0e-3
INTERVAL_S = 0.1  # seconds between samples: the probe takes about 1% of it

_ARRAY = np.random.default_rng(1).random(20_000) + 0.5


def kernel() -> None:
    y = _ARRAY ** -0.5
    s = np.cumsum(y)
    np.maximum.accumulate(np.abs(s[::-1]))
    acc = 0.0
    for k in range(1, 1500):
        acc += math.log(k + 1.0) ** -0.5
    x = np.float64(1.5)
    for _ in range(300):
        x = np.sqrt(x * x + 1.0) - np.float64(0.5)


class SpeedProbe:
    """Context manager: samples the host's speed over the ``with`` block.

    After the block, ``speed`` is the nominal kernel time over the mean
    sample (below 1 on a slow host) and ``spent`` the wall seconds the
    probe itself took.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._saved = None
        kernel()  # first call: lazy set-up stays out of the samples

    def _sample(self, *_signal) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - c0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.spent = [], 0.0
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()

    @property
    def speed(self) -> float:
        return NOMINAL_S / (sum(self.samples) / len(self.samples))
