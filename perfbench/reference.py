"""A speed-calibrated clock for timing on a shared, contended host.

On a shared host other tenants slow the same code by up to about 1.8x, in
stretches from a second to minutes, and each vCPU is slowed on its own. A
:class:`SpeedClock` samples how fast this process's CPU runs while the
program runs: a POSIX timer interrupts the main thread ``PERIOD_S``
seconds after the previous sample ended, and the signal handler times one
slice of a fixed reference kernel. The kernel uses no vfkt code, so a
change to the program cannot move it, and it mixes the kinds of work vfkt
does: Python loops over small numpy operands (a Jacobi-style sweep as in
the SVD server, a small net's forward and backward as in LKT) for about
60% of a slice, and BLAS work on tall arrays that leave the caches (as the
n x n FRL work does on a large overlap) for the rest. Contention slows the
two parts by different amounts, and the workloads weigh them differently;
the best mix moved from test to test, and 60/40 was near it in each.

An interval measured with :meth:`SpeedClock.now` excludes the time spent in
the handler. :meth:`SpeedClock.speed` gives the mean slowdown of the kernel
against ``REFERENCE_S`` over an interval; dividing a timing by it gives
seconds at the reference speed (see README.md, "Speed calibration"). No
thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Time of one kernel slice on an uncontended vCPU of the host the benchmark
# was built on (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS with one thread).
REFERENCE_S = 0.002
PERIOD_S = 0.05
MIN_WINDOW_S = 0.5  # the shortest stretch a slowdown is averaged over

_RNG = np.random.default_rng(12345)
_M = _RNG.standard_normal((48, 13))
_X = _RNG.standard_normal((32, 12))
_W1 = _RNG.standard_normal((12, 16)) * 0.2
_W2 = _RNG.standard_normal((16, 4)) * 0.2
_TALL = _RNG.standard_normal((1200, 40))
_V = _RNG.standard_normal(40)
_WIDE = _RNG.standard_normal((2, 1200, 64))
BLAS_ROUNDS = 3  # sets the BLAS part to about 40% of a slice


def _interpreted() -> float:
    """Python-level loops over small numpy operands."""
    m = _M.copy()
    n = m.shape[1]
    for p in range(n - 1):  # one Jacobi-style sweep over column pairs
        for q in range(p + 1, n):
            a, b = m[:, p], m[:, q]
            alpha, beta, gamma = a @ a, b @ b, a @ b
            zeta = (beta - alpha) / (2.0 * gamma) if gamma else 0.0
            t = (1.0 if zeta >= 0 else -1.0) / (abs(zeta) + (1.0 + zeta * zeta) ** 0.5)
            c = 1.0 / (1.0 + t * t) ** 0.5
            m[:, p], m[:, q] = c * a - c * t * b, c * t * a + c * b
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(6):  # a small net: forward, backward, update
        h = np.tanh(_X @ w1)
        g_out = (h @ w2) / len(_X)
        g_h = (g_out @ w2.T) * (1.0 - h * h)
        w2 -= 1e-3 * (h.T @ g_out)
        w1 -= 1e-3 * (_X.T @ g_h)
    return float(m.sum()) + float(w1.sum())


def _blas() -> float:
    """Tall operands that leave the L1/L2 caches: a Gram matrix, a few
    power-iteration rounds, and an elementwise pass over 1200x64 arrays."""
    g = _TALL.T @ _TALL
    v = _V
    for _ in range(6):
        v = g @ v
        v = v / np.sqrt(v @ v)
    e = (_WIDE[0] * 1.0001 + _WIDE[1]) * 0.5
    return float((_TALL @ v)[0]) + float(e[0, 0])


def kernel() -> float:
    """One fixed slice of reference work."""
    return _interpreted() + sum(_blas() for _ in range(BLAS_ROUNDS))


class SpeedClock:
    """Samples the reference kernel from a SIGALRM handler while active.

    Use as a context manager around everything that is timed. Timestamps
    from :meth:`now` advance only outside the handler.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.paused = 0.0  # total seconds spent in the handler
        self.stamps: list[float] = []  # now() at each sample
        self.slices: list[float] = []  # seconds the kernel slice took
        self._active = False
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame) -> None:
        if not self._active:
            return
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.paused)
        self.slices.append(t1 - t0)
        self.paused += time.perf_counter() - t0
        # One-shot timer, armed again after the slice: a slow slice cannot
        # be interrupted by the next sample.
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self):
        kernel()  # first-call set-up outside any sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Mean slice time over ``[start, end]`` (``now()`` stamps) divided
        by ``REFERENCE_S``. An interval shorter than ``MIN_WINDOW_S`` is
        widened to it around its middle, so that several samples fall in;
        the nearest sample is used if none does."""
        if end - start < MIN_WINDOW_S:
            mid = (start + end) / 2
            start, end = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi > lo:
            inside = self.slices[lo:hi]
        elif self.slices:
            inside = [self.slices[min(lo, len(self.slices) - 1)]]
        else:
            raise RuntimeError("no speed sample taken")
        return sum(inside) / len(inside) / REFERENCE_S
