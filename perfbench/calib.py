"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of the same code drifts by up to 2x within
minutes: a fixed loop of qps calls swings by half its median between
2-second windows, and its CPU time swings with its wall time, so the
drift is slower execution, not time spent off the CPU.  A fixed kernel
that calls no qps code is therefore timed between ops, and each reported
time is scaled by ``ref_s / t_kernel``, where ``t_kernel`` is the median
kernel time near that moment.  Reported times are thus the times the ops
take on a host where the kernel takes ``ref_s``; they drop out of host
drift but move with every change to qps, whose code the kernel never runs.

Kinds of work do not drift alike, so a workload's kernel is made of the
parts that resemble its own ops (``CALIBRATION`` on each workload class):

- ``small``: a Python loop that builds shift-and-phase matrices with fancy
  indexing and takes complex products and traces at N = 7 to 61, an
  einsum DFT and plain Python arithmetic, the work of ``char_fn``-like
  loops;
- ``family``: a slice of an unoptimised four-operand einsum that builds a
  kernel family at N = 17.  It strides through the whole 1.3 MB stack,
  and this loop drifts with the host about twice as far as ``small``.
"""

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.2  # least wall time between two kernel samples in a run
NEAREST = 15  # kernel samples whose median scales a time

_SIZES = ((7, 40), (17, 30), (31, 20), (61, 8))  # (matrix size, repeats)
_rng = np.random.default_rng(20050407)
_MATS = {n: _rng.normal(size=(n, n)) + 1j * _rng.normal(size=(n, n)) for n, _ in _SIZES}
_STACK = _rng.normal(size=(17,) * 4) + 1j * _rng.normal(size=(17,) * 4)
_K17 = np.arange(17)
_PH17 = np.exp(-2j * np.pi * np.outer(_K17, _K17) / 17)


def _small():
    acc = 0j
    for n, reps in _SIZES:
        ks = np.arange(n)
        M = _MATS[n]
        for k in range(reps):
            S = np.zeros((n, n), dtype=complex)
            S[(ks - k) % n, ks] = np.exp(2j * np.pi * k * ks / n) / np.sqrt(n)
            acc += np.trace(S @ M)
    acc += np.einsum("em,fn,ef->mn", _PH17, _PH17, _MATS[17]).sum()
    x = 0
    for i in range(3000):
        x += (i * i) % 7
    return acc + x


def _family():
    ph = _PH17[:, :2]
    return np.einsum("em,fn,ef,efij->mnij", ph, ph, _MATS[17], _STACK).sum()


# part -> (function, its time on a quiet 2-vCPU Xeon host, rounded)
PARTS = {"small": (_small, 0.003), "family": (_family, 0.003)}


class Kernel:
    def __init__(self, parts):
        self.fns = [PARTS[p][0] for p in parts]
        self.ref_s = sum(PARTS[p][1] for p in parts)
        self()  # the first call pays for lazy numpy set-up

    def __call__(self):
        for fn in self.fns:
            fn()

    def time(self):
        t0 = time.perf_counter()
        self()
        return time.perf_counter() - t0


def scale_now(parts, samples=15):
    """Scale factor from `samples` kernel runs made right now."""
    kernel = Kernel(parts)
    return kernel.ref_s / statistics.median(kernel.time() for _ in range(samples))


class Calibrator:
    """Kernel samples taken during a run, and the scale factor at any moment."""

    def __init__(self, parts):
        self.kernel = Kernel(parts)
        self.at = []  # midpoint of each sample, perf_counter seconds
        self.took = []
        self.last = -float("inf")
        for _ in range(NEAREST):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def tick(self):
        """Take a sample if EVERY_S has passed since the last one."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self, t):
        """ref_s over the median of the NEAREST samples closest in time to `t`."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return self.kernel.ref_s / statistics.median(self.took[lo:lo + NEAREST])

    def median_s(self):
        return statistics.median(self.took)
