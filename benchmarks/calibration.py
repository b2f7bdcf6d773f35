"""Host-speed calibration for the timed metrics.

On a shared host the speed of one core drifts by up to 2x within seconds
and between minutes, from load outside the benchmark's process, and CPU time
drifts the same way. A fixed kernel shaped like the workload's solver step
measures that speed: a ``simplex`` kernel for the simplex-tv workloads and a
``transport`` kernel for ot-inverse, because the two kinds of step slow
down by different amounts under the same load. A measured time is scaled to
the speed at which the kernel takes its reference time per iteration:

    scaled = seconds * reference_us / kernel_us

``Sampler`` times the kernel from a ``SIGALRM`` handler every
``PERIOD_S`` while a measurement runs, so ``kernel_us`` is the host speed
during the measured call itself; the handler's own time is subtracted from
the call's. ``Bracketed`` times it right before and after the call instead,
for calls that must not be interrupted. The kernel is benchmark code, so no change to ``sbpd`` moves
it.
"""

from __future__ import annotations

import dataclasses
import signal
import statistics
import time

import numpy as np
from scipy.special import logsumexp, softmax

PERIOD_S = 0.05

_rng = np.random.default_rng(0x5BD)
_A = _rng.uniform(0.01, 1.01, (50, 50))
_b = 1.0 - _rng.uniform(0.0, 1.0, 50)
_v = _rng.standard_normal(50)
_grid = np.arange(108.0)
_C = 0.5 * (_grid[:, None] - _grid[None, :]) ** 2
_F = _rng.uniform(0.0, 1.0, (108, 108))
_F /= _F.sum(axis=0)
_theta = np.full(108, 1.0 / 108)


@dataclasses.dataclass(frozen=True)
class _Point:
    coords: np.ndarray
    logs: np.ndarray


def _simplex_kernel(iterations):
    """Shaped like a stochastic simplex-tv step: a counter-keyed batch
    draw, a partial-sum gradient, a log-domain prox with ``logsumexp``, a
    difference-and-clip, a small frozen dataclass (n = m = 50)."""
    z = np.full(50, -np.log(50.0))
    point = _Point(np.exp(z), z)
    for i in range(iterations):
        rng = np.random.Generator(np.random.Philox(key=i, counter=i << 64))
        batch = np.sort(rng.choice(50, size=5, replace=False))
        u = _A @ point.coords
        g = _A[batch].T @ np.log(u[batch] / _b[batch])
        w = point.logs - 0.05 * (g + _v)
        w = w - logsumexp(w)
        point = _Point(np.exp(w), w)
        np.clip(np.diff(point.logs), -1.0, 1.0)


def _transport_kernel(iterations):
    """Shaped like an ot-inverse step: a log-domain simplex prox, dense
    products with a 108 x 108 matrix, the semidual value and softmax
    gradient over a 108 x 108 cost, a small frozen dataclass."""
    z = np.full(108, -np.log(108.0))
    point = _Point(np.exp(z), z)
    tau = np.zeros(108)
    for _ in range(iterations):
        w = point.logs - 0.05 * (_F.T @ tau)
        w = w - logsumexp(w)
        point = _Point(np.exp(w), w)
        Z = tau[:, None] - _C
        float(_theta @ logsumexp(Z, axis=0))
        tau = tau - 0.05 * (softmax(Z, axis=0) @ _theta - _F @ point.coords)
        np.clip(np.diff(point.coords), -1.0, 1.0)


# kind -> (kernel, iterations per timing, iterations per sampler tick,
#          reference time per iteration in us)
KERNELS = {
    "simplex": (_simplex_kernel, 100, 15, 150.0),
    "transport": (_transport_kernel, 12, 2, 1000.0),
}


def kernel_us(kind, iterations=None):
    """Time per iteration of the ``kind`` calibration kernel, in us."""
    kernel, default_iterations, _, _ = KERNELS[kind]
    iterations = iterations or default_iterations
    t0 = time.perf_counter_ns()
    kernel(iterations)
    return (time.perf_counter_ns() - t0) / iterations / 1e3


def scale(kind, kernel_samples):
    """Factor that takes a time measured at these ``kind`` kernel speeds to
    the reference speed."""
    return KERNELS[kind][3] / statistics.fmean(kernel_samples)


@dataclasses.dataclass(frozen=True)
class Timing:
    seconds: float      # wall time, less any time the sampler took
    scale: float = 1.0  # reference speed over the host speed while it ran

    @property
    def scaled(self):
        return self.seconds * self.scale


class Unscaled:
    """Plain wall-clock timing, reported as measured."""

    def time(self, fn):
        t0 = time.perf_counter_ns()
        result = fn()
        return result, Timing((time.perf_counter_ns() - t0) * 1e-9)


class Bracketed:
    """Times the ``kind`` kernel right before and right after each call.

    For calls nothing may interrupt (traced runs, whose spans would absorb
    a sampler's time); the host speed is the mean of the two timings.
    """

    def __init__(self, kind):
        self.kind = kind

    def time(self, fn):
        before = kernel_us(self.kind)
        t0 = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - t0
        after = kernel_us(self.kind)
        return result, Timing(elapsed * 1e-9, scale(self.kind, (before, after)))


class Sampler:
    """Samples the ``kind`` kernel every ``PERIOD_S`` of wall time.

    Use as a context manager in the main thread; ``time(fn)`` returns
    ``fn()`` and a :class:`Timing` whose host speed is the mean of the
    kernel samples taken during the call (or one taken right after it, when
    the call was shorter than a period).
    """

    def __init__(self, kind, period_s=PERIOD_S):
        self.kind = kind
        self.period_s = period_s
        self.iterations = KERNELS[kind][2]
        self.samples = []
        self.stolen_ns = 0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter_ns()
        self.samples.append(kernel_us(self.kind, self.iterations))
        self.stolen_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        kernel_us(self.kind)  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn):
        first, stolen = len(self.samples), self.stolen_ns
        t0 = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - t0 - (self.stolen_ns - stolen)
        during = self.samples[first:]
        if not during:
            self._sample()
            during = self.samples[-1:]
        return result, Timing(elapsed * 1e-9, scale(self.kind, during))
