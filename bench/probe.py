"""Machine-speed probe: a fixed piece of work timed around and inside an op.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of the same code by 20-70% from one minute to the
next.  The probe measures that speed while an op runs: it times a small
fixed mix of interpreter work and small NumPy operations (the kind of
work the package's assembly loops do) once before the op, every
:data:`PERIOD` seconds during it (from a ``SIGALRM`` handler, which
Python runs between bytecodes of the op), and once after it.

An op's wall time without the probes that ran inside it, divided by the
mean probe time, is the op's *cost* in probe units: it changes with the
package's code but hardly with the host's load.  The probe's code and
data are fixed here and share nothing with the package.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between probes inside an op
PERIOD = 0.05

#: the probe's time on an idle core of the 2-vCPU x86_64 host the
#: benchmark was written on; a cost times this is in reference seconds
REFERENCE_S = 0.002

_rng = np.random.default_rng(20230216)
_A = np.zeros((512, 512))
_G = _rng.random((510, 8))
_K = _rng.random((8, 8))
_V = _rng.random((2, 2, 510, 8))


def work() -> None:
    """About 2-3 ms of fixed work on an idle core; about 2 MB of data."""
    s = 0
    for i in range(8000):
        s += i * i
    for d in range(2, 40):
        m = 510 - d
        col = _G[d:, :] @ _K.T
        aa = np.einsum("abei,ei->eab", _V[:, :, :m, :], col)
        idx = np.arange(m)
        _A[idx, idx + d] += aa[:, 0, 1]


class Probe:
    def __init__(self):
        self.samples = []  # (start, end) of each probe

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        work()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        """Probe once, then every :data:`PERIOD` seconds until :meth:`stop`."""
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> tuple:
        """Probe once more; returns (seconds since :meth:`start`, probe
        seconds inside them, mean probe seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        # a probe whose alarm came just before the timer stopped may run
        # after t1: only the part of a probe inside [t0, t1] counts
        inside = sum(max(0.0, min(end, t1) - max(start, self._t0))
                     for start, end in self.samples)
        mean = statistics.mean(end - start for start, end in self.samples)
        return t1 - self._t0, inside, mean

    def time_op(self, fn, *args) -> tuple:
        """Run ``fn(*args)`` with probes; returns (result, op seconds
        without the probes inside it, mean probe seconds)."""
        self.start()
        try:
            result = fn(*args)
        finally:
            wall, inside, mean = self.stop()
        return result, wall - inside, mean
