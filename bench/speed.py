"""Machine-speed probe that scales measured times to a reference speed.

The benchmark box shares its cores with other tenants: the same
interpreter-bound code runs up to 1.7x slower for seconds to minutes at a
time, and every part of seirv slows by the same factor. Raw times of
identical work therefore spread by 20-25% between runs, which hides any
regression smaller than that. The probe times a fixed pure-Python kernel
(scalar RK4 of a damped oscillator, independent of seirv, so no change to the
program can speed it up) right before and after each job and every
``INTERVAL_S`` during it through SIGALRM. A job's time, minus the time spent
in probes, is scaled by ``REFERENCE_S`` over the mean probe time around and
during the job. The benchmark pins itself and its children to one vCPU, so
the probe measures the core the work runs on. On the 2-vCPU box this cut
the spread of 20-second windows of identical work from 22% to 5%. Reports
keep the raw times beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: Median time of one kernel call on the 2-vCPU benchmark box (Python 3.11).
#: It only sets the unit: scaled times read as seconds at that speed.
REFERENCE_S = 0.0047
#: Period of the in-job probe; each call costs ~2% of it.
INTERVAL_S = 0.25


def kernel() -> float:
    x, v, h = 1.0, 0.0, 0.01
    for _ in range(6000):
        a1 = v; b1 = -x - 0.1 * v
        a2 = v + 0.5 * h * b1; b2 = -(x + 0.5 * h * a1) - 0.1 * a2
        a3 = v + 0.5 * h * b2; b3 = -(x + 0.5 * h * a2) - 0.1 * a3
        a4 = v + h * b3; b4 = -(x + h * a3) - 0.1 * a4
        x += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return x


class SpeedProbe:
    """Kernel timings in order, and the total time spent taking them.

    Each sample is the kernel's CPU time, not its wall time: while a cli
    subprocess runs on the same pinned vCPU, the probe shares the core with
    it, and only its CPU time measures the core's speed and the time the job
    lost to the probe.
    """

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0

    def sample(self) -> None:
        c0 = time.process_time()
        kernel()
        elapsed = time.process_time() - c0
        self.samples.append(elapsed)
        self.spent_s += elapsed

    @contextlib.contextmanager
    def during(self, enabled: bool = True):
        """Sample every INTERVAL_S while the block runs (main thread only)."""
        if not enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int) -> float:
        """REFERENCE_S over the mean of samples[first:]."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])
