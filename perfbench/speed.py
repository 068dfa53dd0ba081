"""Machine speed sampled during a measurement, to scale wall times.

The vCPUs this benchmark was written on switch between speed levels that
differ by up to 1.5x and last seconds to minutes, independently per vCPU, so
the same scene mapped twice can take 2.1 s or 4.0 s. While a `SpeedSampler`
is active, a timer signal every 50 ms runs a fixed kernel in the measured
thread and times it. A wall time measured over the same interval, multiplied
by `factor`, is the time at the reference speed, at which the kernel takes
REFERENCE_KERNEL_S, its typical time on the reference machine (README.md). On 45 repeats of one map the scaled
times spread by 6 % (quartile distance over median) where the raw ones spread
by 17 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 2.4e-4


def _kernel() -> float:
    """Small allocations, container building and small numpy arrays: the mix
    the pipeline's inner loops are made of, so its speed moves with theirs."""
    d = {}
    for i in range(300):
        d[i] = (i, [i] * 3, str(i))
    arrays = [np.array([i, i + 1.0, i + 2.0]) for i in range(40)]
    return sum(float(a.sum()) for a in arrays) + len(d)


class SpeedSampler:
    """Context manager sampling the kernel's time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    @property
    def factor(self) -> float:
        """Reference speed over the speed sampled, averaged over the samples.

        Work done while the kernel takes k(t) takes k(t) / k_ref times longer
        than at reference speed, so the time at reference speed is the wall
        time times the mean of k_ref / k(t) over samples spread evenly in time.
        """
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in self.samples)
