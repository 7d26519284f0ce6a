"""Fixed reference kernel that scales wall times to one machine speed.

On a shared two-core sandbox (Intel Xeon, Python 3.11) each CPU swings
between two speeds, about 2x apart, on its own, in phases that last from a
fraction of a second to minutes; CPU time tracks wall time, so the swing is
not scheduler wait. Raw run medians of one fixed operation then spread by
38-50 percent (quartile distance over median, 16 runs). The harness
therefore times this kernel right before and after every operation, on the
CPU the operation runs on (see ``timed``), and reports the operation's wall
time multiplied by NOMINAL_S / (mean kernel time around it); in the same
probe the spread fell to 2-4 percent. Raw wall times are reported next to
the scaled ones.

The kernel is frozen benchmark code, independent of graspsynth: the same
mix of scalar Python float work (a cubic-root continuation) and small NumPy
array work (element matrices, scatter, a dense solve) that the toolkit does,
so both respond alike to a slow phase. Changing it, or NOMINAL_S, changes
every scaled figure and is a benchmark change of its own.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

# A typical kernel time on that sandbox; scaled figures read as wall times
# at that speed.
NOMINAL_S = 0.0015

_REPEATS = 3
_CONTINUATION_STEPS = 200
_ELEMENTS = 20
_C = np.array([[9.0, 1.0, 0.5], [1.0, 8.0, 2.0], [0.5, 2.0, 8.0]])


def _real_roots(k1, k2, k3, k4):
    b, c, d = k2 / k1, k3 / k1, k4 / k1
    pp = c - b * b / 3.0
    qq = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        return [float(np.cbrt(-qq / 2.0 + s) + np.cbrt(-qq / 2.0 - s) + shift)]
    m = 2.0 * math.sqrt(-pp / 3.0)
    phi = math.acos(min(1.0, max(-1.0, 3.0 * qq / (pp * m)))) / 3.0
    return sorted(m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift
                  for k in range(3))


def kernel() -> float:
    """One pass of the reference work; returns a value so nothing is skipped."""
    p, t = 0.0, 0.06
    for i in range(1, _CONTINUATION_STEPS + 1):
        y = -0.02 * i / _CONTINUATION_STEPS
        x = -0.003 * i / _CONTINUATION_STEPS
        k1 = 4.0 * t * t / 675.0 + y * y / 42000.0
        k2 = 16.0 * t * t / 45.0 - 17.0 * y * y / 2100.0 - 8.0 * x / 225.0
        k3 = 16.0 * t * t / 3.0 - 96.0 * y * y / 175.0 - 32.0 * x / 15.0
        k4 = -48.0 * y * y / 5.0 - 32.0 * x
        p = min(_real_roots(k1, k2, k3, k4), key=lambda r: abs(r - p))
    n = _ELEMENTS + 4
    K = np.zeros((n, n))
    f = np.zeros(n)
    for e in range(_ELEMENTS):
        B = np.array([[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.1, 1.0, 0.0, -0.1, 0.0],
                      [0.0, 0.1, 0.0, 0.0, -0.1, 1.0]])
        Ke = B.T @ _C @ B + np.outer(B[0], B[1])
        idx = np.arange(e, e + 4)
        K[np.ix_(idx, idx)] += Ke[:4, :4]
        f[idx] += Ke[:4, 0]
    K += 10.0 * np.eye(n)
    return p + float(np.linalg.solve(K, f).sum())


def sample() -> float:
    """Median wall time of a few kernel passes on the current CPU [s]."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sample_all_cpus() -> float:
    """Mean of ``sample()`` on each CPU this process may use [s].

    Each CPU of the sandbox changes speed on its own, so work spread over
    threads on several CPUs runs at about their mean speed. Only the
    calling thread is pinned, and only while it samples.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


@dataclass
class Timing:
    """One timed call: its return value, wall time and reference time."""

    value: object
    wall_s: float
    ref_s: float  # mean kernel time just before and just after the call

    @property
    def factor(self) -> float:
        """Multiplier that scales a time measured around the call."""
        return NOMINAL_S / self.ref_s

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


def timed(fn, all_cpus: bool = False) -> Timing:
    """Call ``fn()`` between two kernel samples.

    By default the calling thread, and any thread or process it starts
    during the call, runs pinned to its lowest allowed CPU, and the kernel
    is timed there. With ``all_cpus`` the call runs unpinned and the kernel
    time is the mean over every allowed CPU (``sample_all_cpus``), for work
    that spreads over several CPUs.
    """
    allowed = os.sched_getaffinity(0)
    sampler = sample_all_cpus if all_cpus else sample
    if not all_cpus:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        before = sampler()
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        after = sampler()
    finally:
        os.sched_setaffinity(0, allowed)
    return Timing(value, wall, 0.5 * (before + after))
